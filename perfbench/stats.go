package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted and is not
// modified. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// Time-based end-to-end metrics are taken per block of consecutive samples
// or intervals, and the run reports the quartile of the blocks on the
// undisturbed side: the lower quartile of times and costs (calmLow), the
// upper quartile of rates (calmHigh). On a shared machine, other tenants
// take the CPU in bursts of seconds; a burst that slows up to three
// quarters of a run's blocks leaves the figure unmoved, while a change
// that slows every block moves it fully.
const (
	calmLow  = 0.25
	calmHigh = 0.75
)

// blockQuantile cuts xs (in the order the samples were taken) into up to
// maxBlocks consecutive blocks of at least minBlock samples and returns the
// lower quartile over the blocks of each block's q-quantile; with fewer
// samples it is the q-quantile of all of them.
func blockQuantile(xs []float64, q float64, maxBlocks, minBlock int) float64 {
	blocks := min(maxBlocks, len(xs)/minBlock)
	if blocks < 2 {
		return quantile(xs, q)
	}
	per := make([]float64, blocks)
	for b := range per {
		per[b] = quantile(xs[b*len(xs)/blocks:(b+1)*len(xs)/blocks], q)
	}
	return quantile(per, calmLow)
}

// blockRatios cuts paired per-interval amounts num and den (in time order)
// into up to maxBlocks consecutive blocks of at least minPer intervals and
// returns each block's sum(num)/sum(den); with fewer intervals, the ratio
// of the totals.
func blockRatios(num, den []float64, maxBlocks, minPer int) []float64 {
	blocks := max(1, min(maxBlocks, len(num)/minPer))
	per := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		var n, d float64
		for i := b * len(num) / blocks; i < (b+1)*len(num)/blocks; i++ {
			n += num[i]
			d += den[i]
		}
		if d > 0 {
			per = append(per, n/d)
		}
	}
	return per
}

// ms and us convert durations to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// interval is a closed time span in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent and overlapping children are counted
// once.
func selfTime(parent interval, children []interval) int64 {
	total := parent.end - parent.start
	if total <= 0 {
		return 0
	}
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, c := range cs {
		if c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
			continue
		}
		if c.end > curE {
			curE = c.end
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return total - covered
}
