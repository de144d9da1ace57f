package main

import (
	"math"
	"testing"
	"time"

	"rebeca"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of an empty sample = %v, want 0", got)
	}
}

func TestBlockQuantile(t *testing.T) {
	// 800 samples of 1ms, with one block of 100 hit by a 50ms stall.
	xs := make([]float64, 800)
	for i := range xs {
		xs[i] = 1
		if i >= 300 && i < 400 {
			xs[i] = 50
		}
	}
	if got := quantile(xs, 0.9); got != 50 {
		t.Fatalf("whole-run p90 = %v, want 50", got)
	}
	if got := blockQuantile(xs, 0.9, 8, 100); got != 1 {
		t.Errorf("block p90 = %v, want 1: one disturbed block of eight must not move it", got)
	}
	for i := range xs {
		xs[i] *= 2
	}
	if got := blockQuantile(xs, 0.9, 8, 100); got != 2 {
		t.Errorf("block p90 after slowing every sample = %v, want 2", got)
	}
	// Too few samples for two blocks: the whole-run quantile.
	if got, want := blockQuantile(xs[:150], 0.5, 8, 100), quantile(xs[:150], 0.5); got != want {
		t.Errorf("block p50 of 150 samples = %v, want %v", got, want)
	}
	// A burst over five blocks of eight moves a median of the blocks but
	// not their lower quartile.
	for i := range xs {
		xs[i] = 1
		if i >= 200 && i < 700 {
			xs[i] = 3
		}
	}
	if got := blockQuantile(xs, 0.5, 8, 100); got != 1 {
		t.Errorf("block p50 with five disturbed blocks of eight = %v, want 1", got)
	}
}

func TestBlockRatios(t *testing.T) {
	num := []float64{1, 2, 3, 4, 5, 6, 7}
	den := []float64{1, 1, 1, 1, 1, 1, 0}
	// Seven intervals, at least two per block: three blocks of 2, 2 and 3.
	got := blockRatios(num, den, 8, 2)
	want := []float64{1.5, 3.5, 9}
	if len(got) != len(want) {
		t.Fatalf("blockRatios = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("blockRatios = %v, want %v", got, want)
		}
	}
	// Fewer intervals than one block: the ratio of the totals.
	if got := blockRatios(num[:3], den[:3], 8, 5); len(got) != 1 || got[0] != 2 {
		t.Errorf("blockRatios of 3 intervals = %v, want [2]", got)
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {50, 60}}, 80},
		{"overlapping counted once", []interval{{10, 30}, {20, 40}}, 70},
		{"nested", []interval{{10, 50}, {20, 30}}, 60},
		{"clipped to the parent", []interval{{-10, 10}, {90, 150}}, 80},
		{"outside the parent", []interval{{200, 300}}, 100},
		{"covering the parent", []interval{{0, 100}}, 0},
	} {
		if got := selfTime(interval{0, 100}, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSpanSelfTimes checks the parent links the trace analysis assigns and
// the self times derived from them: a routing step at a broker minus the
// local delivery it ran, and a receipt's egress from the last delivery.
func TestSpanSelfTimes(t *testing.T) {
	n1 := rebeca.NotificationID{Publisher: "pub", Seq: 1}
	n2 := rebeca.NotificationID{Publisher: "pub", Seq: 2}
	spans := []span{
		{Name: spanBrokerPub, Start: 0, End: 10_000, Note: n1, Broker: "B2", From: "pub"},
		{Name: spanBrokerPub, Start: 20_000, End: 30_000, Note: n1, Broker: "B0", From: "B1"},
		{Name: spanBrokerDel, Start: 22_000, End: 26_000, Note: n1, Broker: "B0", From: "sub"},
		{Name: spanReceipt, Start: 31_000, End: 31_000, Note: n1},
		// A delivery outside any routing step of its note has no parent.
		{Name: spanBrokerDel, Start: 40_000, End: 41_000, Note: n2, Broker: "B0", From: "sub"},
	}
	link(spans)
	if spans[2].Parent != 1 || spans[3].Parent != 2 || spans[4].Parent != -1 {
		t.Fatalf("parents = %d %d %d, want 1 2 -1", spans[2].Parent, spans[3].Parent, spans[4].Parent)
	}
	if got := selfTimes(spans, spanBrokerPub); len(got) != 2 || got[0] != 10 || got[1] != 6 {
		t.Errorf("broker.publish self times = %v µs, want [10 6]", got)
	}
	if got := egressTimes(spans, func(rebeca.NotificationID) bool { return true }); len(got) != 1 || got[0] != 5 {
		t.Errorf("egress = %v µs, want [5]", got)
	}
	hops, forwards, notes := hopTimes(spans, func(rebeca.NotificationID) bool { return true })
	if len(hops) != 1 || hops[0] != 20 || forwards != 1 || notes != 1 {
		t.Errorf("hops = %v µs, forwards %d, notes %d; want [20], 1, 1", hops, forwards, notes)
	}
}

func ids(pub rebeca.NodeID, seqs ...uint64) []rebeca.NotificationID {
	out := make([]rebeca.NotificationID, len(seqs))
	for i, s := range seqs {
		out[i] = rebeca.NotificationID{Publisher: pub, Seq: s}
	}
	return out
}

// TestOracle injects each kind of failure into a synthetic delivery log.
func TestOracle(t *testing.T) {
	owed := newOwedSet()
	for _, id := range append(ids("a", 1, 2, 3, 4, 5), ids("b", 1, 2, 3)...) {
		owed.add(id)
	}
	clean := append(ids("a", 1, 2), append(ids("b", 1), append(ids("a", 3, 4, 5), ids("b", 2, 3)...)...)...)
	for _, c := range []struct {
		name string
		log  []rebeca.NotificationID
		want verdict
	}{
		{"clean, publishers interleaved", clean, verdict{Owed: 8, Received: 8}},
		{"loss", append(ids("a", 1, 2, 4, 5), ids("b", 1, 2, 3)...), verdict{Owed: 8, Received: 7, Missing: 1}},
		{"duplicate", append(clean, ids("a", 3)...), verdict{Owed: 8, Received: 8, Dups: 1}},
		{"reorder", append(ids("a", 1, 3, 2, 4, 5), ids("b", 1, 2, 3)...), verdict{Owed: 8, Received: 8, FIFO: 1}},
		{"notes not owed are ignored", append(clean, ids("c", 9, 1)...), verdict{Owed: 8, Received: 8}},
		{"nothing delivered", nil, verdict{Owed: 8, Missing: 8}},
	} {
		got := checkLog(owed, c.log)
		if got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
		if (got.failed() == 0) != (c.want.Missing+c.want.Dups+c.want.FIFO == 0) {
			t.Errorf("%s: failed() = %d", c.name, got.failed())
		}
	}
}

func TestArrivalsAreSeeded(t *testing.T) {
	a, b, c := newArrivals(7, 1000), newArrivals(7, 1000), newArrivals(8, 1000)
	differ := false
	for i := 0; i < 5000; i++ {
		if a.due() != b.due() {
			t.Fatalf("arrival %d: %v vs %v from the same seed", i, a.due(), b.due())
		}
		differ = differ || a.due() != c.due()
		a.advance()
		b.advance()
		c.advance()
	}
	if !differ {
		t.Error("different seeds gave the same schedule")
	}
	// 5000 arrivals at 1000/s take about 5s.
	if got := a.due(); got < 4500*time.Millisecond || got > 5500*time.Millisecond {
		t.Errorf("5000 arrivals at 1000/s end at %v", got)
	}
}
