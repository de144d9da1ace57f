package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rebeca"
)

// The roam workload: live TCP on a cyclic 3×2 cell grid with mesh routing
// and pre-subscriptions. One port (the hub) publishes location-stamped
// menu notes for every cell and a location-free news stream, both open
// loop, and holds a stationary population of location subscriptions. One
// mobile port hops between neighbouring cells on a seeded schedule,
// holding one location subscription and one location-free subscription.
const (
	roamLocRate  = 600  // location-stamped notes per second, over all cells
	roamNewsRate = 300  // location-free notes per second
	roamTopics   = 1000 // stationary location subscriptions at the hub
	roamDwellMin = 6 * time.Millisecond
	roamDwellMax = 12 * time.Millisecond
	roamGap      = 3 * time.Millisecond // disconnected between two cells
	roamWarmup   = 200 * time.Millisecond
	// roamHubCell is a middle cell, so the hub's subscriptions are
	// pre-subscribed at three neighbours whatever the seed.
	roamHubCell = "B1"
	// roamQuiet ends the drain once no delivery arrived for this long:
	// an owed note that has not come by then is counted as lost.
	roamQuiet = 500 * time.Millisecond
	// roamLeaveWait bounds how long the mobile waits, before it leaves a
	// cell, for the news notes already published to reach it.
	roamLeaveWait = time.Second
)

func roamCell(b rebeca.NodeID) string { return "region-" + string(b) }

// mobTrack follows the mobile from its consumer goroutine. The generator
// opens a handover at each Connect; the handover closes once the mobile
// holds every news note published while it was away.
type mobTrack struct {
	epoch    time.Time
	rec      *recorder // nil when untraced
	mu       sync.Mutex
	log      []rebeca.NotificationID
	newsSeen bitset
	newsHeld int64 // every news ordinal up to this one is held
	// wake is closed once newsHeld reaches want (see awaitNews).
	want    int64
	wake    chan struct{}
	cell    string // current cell's location, "" while away
	arrived int64  // Connect start, ns since epoch
	// The open handover waits for news ordinals scan..hi.
	open      bool
	scan, hi  int64
	firstOpen bool // first location-stamped delivery not yet seen
	handover  []float64
	first     []float64
	abandoned int // handovers still open when the mobile left again
	prearr    int
	wrongCell int
	replays   int
	done      chan struct{}
}

func (t *mobTrack) run(events <-chan rebeca.Delivery) {
	defer close(t.done)
	for d := range events {
		at := int64(time.Since(t.epoch))
		t.rec.receipt(d.Note.ID, at)
		t.mu.Lock()
		t.log = append(t.log, d.Note.ID)
		if len(d.Subs) == 0 {
			t.replays++
		}
		if v, ok := d.Note.Get("news"); ok {
			t.newsSeen.set(uint64(v.IntVal()))
			for t.newsSeen.has(uint64(t.newsHeld + 1)) {
				t.newsHeld++
			}
			if t.wake != nil && t.newsHeld >= t.want {
				close(t.wake)
				t.wake = nil
			}
		}
		if loc, ok := d.Note.Get(rebeca.AttrLocation); ok && t.firstOpen && t.cell != "" {
			// The first location-stamped delivery after arrival must be
			// for the cell the mobile is in.
			t.firstOpen = false
			if loc.Str() != t.cell {
				t.wrongCell++
			} else {
				t.first = append(t.first, float64(at-t.arrived)/1e6)
				if due, _ := d.Note.Get("due"); due.IntVal() < t.arrived {
					t.prearr++
				}
			}
		}
		t.closeIfHeld(at)
		t.mu.Unlock()
	}
}

// closeIfHeld closes the open handover once every news note published
// while the mobile was away is held. Callers hold t.mu.
func (t *mobTrack) closeIfHeld(at int64) {
	if !t.open {
		return
	}
	for t.scan <= t.hi && t.newsSeen.has(uint64(t.scan)) {
		t.scan++
	}
	if t.scan > t.hi {
		t.open = false
		t.handover = append(t.handover, float64(at-t.arrived)/1e6)
	}
}

// awaitNews blocks until the mobile holds every news note up to ordinal n,
// or until timeout passes; it reports whether it holds them.
func (t *mobTrack) awaitNews(n int64, timeout time.Duration) bool {
	t.mu.Lock()
	if t.newsHeld >= n {
		t.mu.Unlock()
		return true
	}
	wake := make(chan struct{})
	t.want, t.wake = n, wake
	t.mu.Unlock()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-wake:
		return true
	case <-timer.C:
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wake = nil
	return t.newsHeld >= n
}

// hubSink logs the hub's own deliveries (its stationary subscriptions).
type hubSink struct {
	mu  sync.Mutex
	log []rebeca.NotificationID
}

type roamDeploy struct {
	live    *rebeca.Live
	hub     rebeca.Port
	mob     rebeca.Port
	hubCell rebeca.NodeID
	mobCell rebeca.NodeID
	track   *mobTrack
	sink    *hubSink
	filters []rebeca.Filter
}

func (d *roamDeploy) close() {
	_ = d.live.Close()
	<-d.track.done
}

func buildRoam(e *env, rng *rand.Rand) (*roamDeploy, error) {
	opts := []rebeca.Option{rebeca.WithMovement(rebeca.Grid(3, 2)), rebeca.WithMeshRouting()}
	if e.rec != nil {
		opts = append(opts, rebeca.WithMiddleware(stage{e.rec}))
	}
	live, err := rebeca.NewLive(opts...)
	if err != nil {
		return nil, err
	}
	cells := live.Brokers()
	d := &roamDeploy{
		live:    live,
		hubCell: roamHubCell,
		mobCell: cells[rng.Intn(len(cells))],
		sink:    &hubSink{},
		track:   &mobTrack{epoch: e.epoch, rec: e.rec, done: make(chan struct{})},
	}
	if e.rec != nil {
		e.rec.watch(live)
	}
	d.hub = live.NewClient("hub")
	d.hub.OnNotify(func(n rebeca.Notification) {
		d.sink.mu.Lock()
		d.sink.log = append(d.sink.log, n.ID)
		d.sink.mu.Unlock()
	})
	for k := 0; k < roamTopics; k++ {
		f := rebeca.AtLocation(rebeca.Eq("svc", rebeca.String("menu")), rebeca.Eq("topic", rebeca.Int(int64(k))))
		// Nobody reads the per-subscription streams (OnNotify sees every
		// delivery), so keep them minimal.
		d.hub.Subscribe(f, rebeca.WithStreamBuffer(1))
		d.filters = append(d.filters, f)
	}
	d.mob = live.NewClient("mob")
	menu := rebeca.AtLocation(rebeca.Eq("svc", rebeca.String("menu")))
	news := rebeca.NewFilter(rebeca.Eq("svc", rebeca.String("news")))
	d.mob.Subscribe(menu, rebeca.WithStreamBuffer(1))
	d.mob.Subscribe(news, rebeca.WithStreamBuffer(1))
	d.filters = append(d.filters, menu, news)
	go d.track.run(d.mob.Events())
	for _, c := range []struct {
		p rebeca.Port
		b rebeca.NodeID
	}{{d.hub, d.hubCell}, {d.mob, d.mobCell}} {
		if err := e.connect(c.p, c.b); err != nil {
			d.close()
			return nil, err
		}
	}
	d.track.mu.Lock()
	d.track.cell = roamCell(d.mobCell)
	d.track.mu.Unlock()
	live.Settle()
	return d, nil
}

// roamGen makes the hub's notes from the run's seed.
type roamGen struct {
	rng   *rand.Rand
	cells []rebeca.NodeID
	newsN int64 // news notes published so far
}

func (g *roamGen) locNote(due time.Duration) map[string]rebeca.Value {
	cell := g.cells[g.rng.Intn(len(g.cells))]
	n := rebeca.Notification{Attrs: map[string]rebeca.Value{
		"svc":   rebeca.String("menu"),
		"topic": rebeca.Int(int64(g.rng.Intn(roamTopics))),
		"dish":  rebeca.String(fmt.Sprintf("dish-%d", g.rng.Intn(50))),
		"due":   rebeca.Int(int64(due)),
	}}
	return rebeca.StampLocation(n, rebeca.Location(roamCell(cell))).Attrs
}

func (g *roamGen) newsNote(due time.Duration) map[string]rebeca.Value {
	g.newsN++
	return map[string]rebeca.Value{
		"svc":  rebeca.String("news"),
		"news": rebeca.Int(g.newsN),
		"body": rebeca.String(fmt.Sprintf("headline-%d", g.rng.Intn(1000))),
		"due":  rebeca.Int(int64(due)),
	}
}

func runRoam(e *env) (*outcome, error) {
	out := &outcome{}
	rng := rand.New(rand.NewSource(e.seed))
	var d *roamDeploy
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if d, err = buildRoam(e, rng); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0))
		if i < setupRepeats-1 {
			d.close()
		}
	}
	defer d.close()
	out.filters = d.filters

	g := &roamGen{rng: rand.New(rand.NewSource(e.seed ^ 0x70a3)), cells: d.live.Brokers()}
	loc := newArrivals(e.seed^0x10c, roamLocRate)
	news := newArrivals(e.seed^0x4e35, roamNewsRate)
	hops := rand.New(rand.NewSource(e.seed ^ 0x40b5))
	graph := rebeca.Grid(3, 2)
	total := roamWarmup + time.Duration(e.seconds*float64(time.Second))
	pc := &pacer{start: time.Now()}
	owedHub, owedMob := newOwedSet(), newOwedSet()
	hubCell := roamCell(d.hubCell)
	var m *meter
	var delivered0 int
	var measureStart time.Time
	connects, connectFails, leaveWaits := 0, 0, 0
	t := d.track

	const never = time.Duration(1<<63 - 1)
	leaveAt, arriveAt := roamWarmup+dwell(hops), never
	for {
		next := min(loc.due(), news.due(), leaveAt, arriveAt)
		if next >= total {
			break
		}
		if m == nil && next >= roamWarmup {
			// Warm-up over: the measured phase starts here.
			m = e.meter()
			measureStart = time.Now()
			d.sink.mu.Lock()
			t.mu.Lock()
			delivered0 = len(d.sink.log) + len(t.log)
			t.handover, t.first, t.abandoned, t.prearr, t.wrongCell, t.replays = nil, nil, 0, 0, 0, 0
			t.mu.Unlock()
			d.sink.mu.Unlock()
			pc.late = pc.late[:0]
		}
		at := pc.wait(next)
		due := at.Sub(e.epoch)
		switch next {
		case leaveAt:
			// Leave only once every news note published so far is held.
			// Disconnect closes the connection right after announcing the
			// departure, so a delivery still in flight on it would be lost
			// (see README.md); the generator publishes nothing while it
			// waits, so nothing owed is in flight when it leaves.
			if !t.awaitNews(g.newsN, roamLeaveWait) {
				leaveWaits++
			}
			t.mu.Lock()
			if t.open {
				t.open = false
				t.abandoned++
			}
			t.cell = ""
			t.scan = g.newsN + 1 // news published from here on is owed on arrival
			t.mu.Unlock()
			if err := d.mob.Disconnect(); err != nil {
				return nil, fmt.Errorf("disconnect: %w", err)
			}
			nb := graph.Neighbors(d.mobCell)
			d.mobCell = nb[hops.Intn(len(nb))]
			leaveAt, arriveAt = never, next+roamGap
		case arriveAt:
			t0 := time.Since(e.epoch)
			t.mu.Lock()
			t.cell = roamCell(d.mobCell)
			t.arrived = int64(t0)
			t.hi = g.newsN
			t.open = true
			t.firstOpen = true
			t.mu.Unlock()
			err := d.mob.Connect(d.mobCell)
			t1 := time.Since(e.epoch)
			connects++
			if e.rec != nil {
				e.rec.add(span{Name: spanConnect, Start: int64(t0), End: int64(t1), Broker: d.mobCell})
			}
			if err != nil {
				connectFails++
			}
			t.mu.Lock()
			t.closeIfHeld(int64(t1))
			t.mu.Unlock()
			leaveAt, arriveAt = next+dwell(hops), never
		case news.due():
			news.advance()
			id, err := publishTraced(e, d.hub, g.newsNote(due))
			if err != nil {
				return nil, err
			}
			owedMob.add(id)
		default:
			loc.advance()
			attrs := g.locNote(due)
			id, err := publishTraced(e, d.hub, attrs)
			if err != nil {
				return nil, err
			}
			if attrs[rebeca.AttrLocation].Str() == hubCell {
				owedHub.add(id)
			}
		}
		if m != nil {
			m.sample()
		}
	}
	phase := time.Since(measureStart)
	if arriveAt != never {
		// End connected, so everything owed can arrive.
		connects++
		if err := d.mob.Connect(d.mobCell); err != nil {
			connectFails++
		}
	}

	// Drain: until both subscribers hold what they are owed, or nothing
	// arrived for roamQuiet.
	var vh, vm verdict
	var hubLog, mobLog []rebeca.NotificationID
	deadline := time.Now().Add(drainTimeout)
	lastLen, lastChange := -1, time.Now()
	for {
		d.sink.mu.Lock()
		hubLog = append(hubLog[:0], d.sink.log...)
		d.sink.mu.Unlock()
		t.mu.Lock()
		mobLog = append(mobLog[:0], t.log...)
		t.mu.Unlock()
		vh, vm = checkLog(owedHub, hubLog), checkLog(owedMob, mobLog)
		if n := len(hubLog) + len(mobLog); n != lastLen {
			lastLen, lastChange = n, time.Now()
		}
		if vh.Missing+vm.Missing == 0 || time.Since(lastChange) > roamQuiet || time.Now().After(deadline) {
			break
		}
		m.sample()
		time.Sleep(5 * time.Millisecond)
	}
	out.cost = m.stop()

	t.mu.Lock()
	defer t.mu.Unlock()
	vm.Other += t.wrongCell
	vh.Other += connectFails
	out.verdict = vh
	out.verdict.add(vm)
	out.attempted = out.verdict.Owed + connects
	out.latency = t.handover
	out.delivered = len(hubLog) + len(mobLog) - delivered0
	out.throughput = float64(out.delivered) / phase.Seconds()
	out.late = pc.late
	out.delivery = mobLog
	out.extra = []namedValue{
		{"core.first_local_p50_ms", "ms", quantile(t.first, 0.5)},
		{"core.first_local_p99_ms", "ms", quantile(t.first, 0.99)},
	}
	out.layers = map[string]float64{
		"mobility.replays_per_handover": float64(t.replays) / float64(max(len(t.handover), 1)),
		"core.prearrival_frac":          float64(t.prearr) / float64(max(len(t.first), 1)),
	}
	out.notes = append(out.notes,
		fmt.Sprintf("%d connects (%d failed), %d handovers closed, %d abandoned; %d first-local samples, %d in the wrong cell; %d departures left with news not yet held",
			connects, connectFails, len(t.handover), t.abandoned, len(t.first), t.wrongCell, leaveWaits),
		fmt.Sprintf("hub: %s", vh), fmt.Sprintf("mobile: %s", vm),
		"latency_* are handover times: Connect at the new cell until every news note published while away is held")
	return out, nil
}

func dwell(r *rand.Rand) time.Duration {
	return roamDwellMin + time.Duration(r.Int63n(int64(roamDwellMax-roamDwellMin)))
}
