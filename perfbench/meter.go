package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// meter measures one phase of a run: wall time, process CPU time (user +
// system, so broker goroutines count too), heap allocations, and the peak
// live heap (the heap the last garbage collection found reachable; unlike
// the heap in use it does not saw-tooth with the collection cycle). Peak sampling is driven by the caller's own loop (sample),
// so the meter adds no goroutine of its own.
type meter struct {
	wall0    time.Time
	cpu0     time.Duration
	mallocs0 uint64
	peak     uint64
	last     time.Time
	heap     []metrics.Sample
	hook     func() // extra sampling, run with every heap sample
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func startMeter() *meter {
	m := &meter{heap: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	m.mallocs0 = mallocs()
	m.cpu0 = cpuTime()
	m.wall0 = time.Now()
	m.sampleNow()
	return m
}

// meter starts a phase meter; a traced run also samples the overlay
// queues of the watched deployment.
func (e *env) meter() *meter {
	m := startMeter()
	if e.rec != nil {
		m.hook = e.rec.samplePending
		m.sampleNow()
	}
	return m
}

// sample records the live heap if at least 10ms passed since the last
// sample.
func (m *meter) sample() {
	if time.Since(m.last) >= 10*time.Millisecond {
		m.sampleNow()
	}
}

func (m *meter) sampleNow() {
	m.last = time.Now()
	if m.hook != nil {
		m.hook()
	}
	metrics.Read(m.heap)
	if v := m.heap[0].Value.Uint64(); v > m.peak {
		m.peak = v
	}
}

// phaseCost is what a finished phase cost.
type phaseCost struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	peakMB float64
}

func (m *meter) stop() phaseCost {
	m.sampleNow()
	return phaseCost{
		wall:   time.Since(m.wall0),
		cpu:    cpuTime() - m.cpu0,
		allocs: mallocs() - m.mallocs0,
		peakMB: float64(m.peak) / 1e6,
	}
}
