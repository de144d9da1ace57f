package main

import (
	"math/rand"
	"time"
)

// arrivals is a seeded open-loop schedule: Poisson arrivals at a fixed
// mean rate, as offsets from the phase start. The same seed and rate give
// the same offsets, whatever the system under test does.
type arrivals struct {
	rng  *rand.Rand
	gap  float64 // mean inter-arrival time in ns
	next time.Duration
}

func newArrivals(seed int64, perSecond float64) *arrivals {
	a := &arrivals{rng: rand.New(rand.NewSource(seed)), gap: float64(time.Second) / perSecond}
	a.advance()
	return a
}

// due returns the offset of the next arrival without consuming it.
func (a *arrivals) due() time.Duration { return a.next }

// advance consumes the current arrival.
func (a *arrivals) advance() {
	a.next += time.Duration(a.rng.ExpFloat64() * a.gap)
}

// pacer waits for due times on the wall clock and records how late the
// generator was when it got to each one. A note is always timed from its
// due time, so a stall in the system under test shows as latency of every
// note that queued behind it, not as a silently lowered offered load.
type pacer struct {
	start time.Time
	late  []float64 // ms behind schedule, one per paced event
}

// wait blocks until start+due and returns the due instant.
func (p *pacer) wait(due time.Duration) time.Time {
	at := p.start.Add(due)
	if d := time.Until(at); d > 50*time.Microsecond {
		time.Sleep(d)
	}
	if late := time.Since(at); late > 0 {
		p.late = append(p.late, ms(late))
	} else {
		p.late = append(p.late, 0)
	}
	return at
}
