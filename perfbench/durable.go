package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rebeca"
)

// The durable workload: live TCP, a 2-broker line, a fsync'd WAL on disk.
// A Durable(name) subscriber on B0 cycles between going offline — the
// ghost session appends every note the publisher on B1 sends meanwhile —
// and reattaching, which replays and acks the backlog. After the measured
// phase the whole deployment is closed and rebuilt on the same WAL
// directory a few times, each time with a backlog pending, and the
// subscriber reattaches to the recovered queue.
const (
	durableBacklog = 500 // notes published per offline period
	// durablePubNotes is how many notes one publisher identity sends
	// before the run switches to a fresh one. It keeps every publisher
	// well inside the subscriber's 64k per-publisher dedup window, which
	// the stream workload crosses on purpose: here, crossing it at a point
	// that depends on fsync speed would make the store's figures depend on
	// how far a run got.
	durablePubNotes = 16000
	// durableLogCap pre-sizes the receipt log and the latency samples past
	// what a run receives, so their growth does not make the peak-heap
	// figure depend on how many cycles a run got through.
	durableLogCap = 1 << 18
	// durableRebuilds is the number of rebuilds after the measured phase.
	durableRebuilds = 3
	// durableQuiet is the deployment's settle window.
	durableQuiet = 5 * time.Millisecond
	// durableBlockCycles is the fewest offline/reattach cycles (about
	// 80 ms each) in a block of the CPU and throughput figures.
	durableBlockCycles = 8
)

// countingStore is the WAL as the deployment sees it, with the appends
// counted: the generator keeps the subscriber offline until the whole
// backlog is in the store.
type countingStore struct {
	rebeca.Store
	appends *atomic.Int64
}

func (s countingStore) Append(queue string, n rebeca.Notification, at time.Time) (uint64, error) {
	seq, err := s.Store.Append(queue, n, at)
	if err == nil {
		s.appends.Add(1)
	}
	return seq, err
}

// durableSink is shared by every subscriber port the run creates, so the
// oracle sees one log across reattaches and rebuilds.
type durableSink struct {
	mu      sync.Mutex
	log     []receipt
	replays int // deliveries replayed by a session layer (no matched subscriptions)
	count   atomic.Int64
}

func (s *durableSink) consume(epoch time.Time, rec *recorder, sub *rebeca.Subscription, done chan<- struct{}) {
	defer close(done)
	for d := range sub.Events() {
		at := int64(time.Since(epoch))
		rec.receipt(d.Note.ID, at)
		s.mu.Lock()
		s.log = append(s.log, receipt{id: d.Note.ID, at: at})
		if len(d.Subs) == 0 {
			s.replays++
		}
		s.mu.Unlock()
		s.count.Add(1)
	}
}

// waitFor polls until the sink holds n receipts or drainTimeout passes.
func (s *durableSink) waitFor(n int64, m *meter) bool {
	return waitCount(&s.count, n, time.Now().Add(drainTimeout), 100*time.Microsecond, m)
}

type durableDeploy struct {
	wal      *rebeca.WALStore
	live     *rebeca.Live
	pub, sub rebeca.Port
	done     chan struct{} // closed when the subscriber's consumer exits
}

func (d *durableDeploy) close() error {
	err := d.live.Close()
	<-d.done
	if cerr := d.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// durableRun is the state one run of the workload carries across
// deployments.
type durableRun struct {
	e       *env
	dir     string
	sink    *durableSink
	appends atomic.Int64
	rng     *rand.Rand
	owed    *owedSet
	filter  rebeca.Filter
	pubs    int // publisher identities used so far
	sent    int // notes sent by the current identity
}

func (r *durableRun) pubID() rebeca.NodeID { return rebeca.NodeID(fmt.Sprintf("pub%d", r.pubs)) }

func (r *durableRun) build() (*durableDeploy, error) {
	wal, err := rebeca.OpenWAL(r.dir)
	if err != nil {
		return nil, err
	}
	opts := []rebeca.Option{
		rebeca.WithMovement(rebeca.Line(2)),
		rebeca.WithDurable(countingStore{Store: wal, appends: &r.appends}),
		rebeca.WithSettleWindow(durableQuiet, drainTimeout),
	}
	if r.e.rec != nil {
		opts = append(opts, rebeca.WithMiddleware(stage{r.e.rec}))
	}
	live, err := rebeca.NewLive(opts...)
	if err != nil {
		_ = wal.Close()
		return nil, err
	}
	if r.e.rec != nil {
		r.e.rec.watch(live)
	}
	d := &durableDeploy{wal: wal, live: live, done: make(chan struct{})}
	d.sub = live.NewClient("sub")
	s := d.sub.Subscribe(r.filter, rebeca.Durable("orders"), rebeca.WithOverflow(rebeca.Block))
	go r.sink.consume(r.e.epoch, r.e.rec, s, d.done)
	d.pub = live.NewClient(r.pubID())
	if err := r.e.connect(d.pub, "B1"); err != nil {
		_ = d.close()
		return nil, err
	}
	if err := r.e.connect(d.sub, "B0"); err != nil {
		_ = d.close()
		return nil, err
	}
	live.Settle()
	return d, nil
}

// offline takes the subscriber offline and publishes one backlog, then
// waits until the ghost session has appended all of it.
func (r *durableRun) offline(d *durableDeploy, m *meter) error {
	if r.sent+durableBacklog > durablePubNotes {
		if err := d.pub.Disconnect(); err != nil {
			return fmt.Errorf("disconnect: %w", err)
		}
		r.pubs++
		r.sent = 0
		d.pub = d.live.NewClient(r.pubID())
		if err := r.e.connect(d.pub, "B1"); err != nil {
			return err
		}
	}
	r.sent += durableBacklog
	if err := d.sub.Disconnect(); err != nil {
		return fmt.Errorf("disconnect: %w", err)
	}
	// Publish only once B0 has seen the departure: a note routed to the
	// subscriber's closing connection is lost (the roam diagnostic shows
	// that race; see README.md), and this workload is about the store path.
	d.live.Settle()
	base := r.appends.Load()
	for i := 0; i < durableBacklog; i++ {
		attrs := map[string]rebeca.Value{
			"topic": rebeca.String("orders"),
			"sku":   rebeca.String(fmt.Sprintf("sku-%04d", r.rng.Intn(5000))),
			"qty":   rebeca.Int(int64(1 + r.rng.Intn(20))),
			"price": rebeca.Float(float64(r.rng.Intn(100000)) / 100),
		}
		id, err := publishTraced(r.e, d.pub, attrs)
		if err != nil {
			return err
		}
		r.owed.add(id)
	}
	if !waitCount(&r.appends, base+durableBacklog, time.Now().Add(drainTimeout), 100*time.Microsecond, m) {
		return fmt.Errorf("ghost appended %d of %d notes", r.appends.Load()-base, durableBacklog)
	}
	return nil
}

func runDurable(e *env) (*outcome, error) {
	out := &outcome{}
	r := &durableRun{
		e:      e,
		dir:    filepath.Join(e.dir, fmt.Sprintf("durable-%d-%d", os.Getpid(), e.seed)),
		rng:    rand.New(rand.NewSource(e.seed)),
		owed:   newOwedSet(),
		filter: rebeca.NewFilter(rebeca.Eq("topic", rebeca.String("orders"))),
	}
	defer os.RemoveAll(r.dir)
	out.filters = []rebeca.Filter{r.filter}
	var d *durableDeploy
	defer func() {
		if d != nil {
			_ = d.close()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if err := os.RemoveAll(r.dir); err != nil {
			return nil, err
		}
		r.sink = &durableSink{log: make([]receipt, 0, durableLogCap)}
		r.owed = newOwedSet()
		r.pubs, r.sent = 0, 0
		t0 := time.Now()
		var err error
		if d, err = r.build(); err != nil {
			return nil, err
		}
		// Warm-up: one full offline/reattach cycle.
		if err := r.offline(d, nil); err != nil {
			return nil, err
		}
		if err := r.e.connect(d.sub, "B0"); err != nil {
			return nil, err
		}
		if !r.sink.waitFor(int64(r.owed.n), nil) {
			return nil, fmt.Errorf("durable warm-up: %d of %d notes arrived", r.sink.count.Load(), r.owed.n)
		}
		out.setups = append(out.setups, time.Since(t0))
		if i < setupRepeats-1 {
			if err := d.close(); err != nil {
				return nil, err
			}
			d = nil
		}
	}

	measured := time.Duration(e.seconds * float64(time.Second))
	out.latency = make([]float64, 0, durableLogCap)
	m := e.meter()
	start := time.Now()
	received0 := r.sink.count.Load()
	r.sink.mu.Lock()
	replays0 := r.sink.replays
	r.sink.mu.Unlock()
	// Per cycle, for the block figures: CPU µs, notes delivered, backlog
	// notes and the seconds their replay took.
	var cpuUs, notes, backlogs, replaySecs []float64
	cycles, connectFails := 0, 0
	for time.Since(start) < measured {
		c0, n0 := cpuTime(), r.sink.count.Load()
		if err := r.offline(d, m); err != nil {
			return nil, err
		}
		r.sink.mu.Lock()
		idx := len(r.sink.log)
		r.sink.mu.Unlock()
		reattach := time.Now()
		from := int64(reattach.Sub(e.epoch))
		if err := e.connect(d.sub, "B0"); err != nil {
			connectFails++
			break
		}
		if !r.sink.waitFor(int64(r.owed.n), m) {
			break
		}
		cycles++
		replaySecs = append(replaySecs, time.Since(reattach).Seconds())
		backlogs = append(backlogs, durableBacklog)
		cpuUs = append(cpuUs, us(cpuTime()-c0))
		notes = append(notes, float64(r.sink.count.Load()-n0))
		r.sink.mu.Lock()
		for _, rc := range r.sink.log[idx:] {
			out.latency = append(out.latency, float64(rc.at-from)/1e6)
		}
		r.sink.mu.Unlock()
	}
	out.cost = m.stop()
	out.delivered = int(r.sink.count.Load() - received0)
	r.sink.mu.Lock()
	replays := r.sink.replays - replays0
	r.sink.mu.Unlock()

	// Rebuilds on the same WAL directory, each with a backlog pending: the
	// recovered ghost session must hand all of it to the new subscriber.
	var recover []float64
	for i := 0; i < durableRebuilds; i++ {
		if err := r.offline(d, nil); err != nil {
			return nil, err
		}
		if err := d.close(); err != nil {
			return nil, err
		}
		d = nil
		t0 := time.Now()
		var err error
		if d, err = r.build(); err != nil {
			return nil, err
		}
		ok := r.sink.waitFor(int64(r.owed.n), nil)
		recover = append(recover, time.Since(t0).Seconds())
		if !ok {
			break
		}
	}

	r.sink.mu.Lock()
	ids := make([]rebeca.NotificationID, len(r.sink.log))
	for i, rc := range r.sink.log {
		ids[i] = rc.id
	}
	r.sink.mu.Unlock()
	out.verdict = checkLog(r.owed, ids)
	out.verdict.Other += connectFails
	out.attempted = out.verdict.Owed
	// Blocks of durableBlockCycles cycles or more, so that each block
	// carries its share of garbage collection.
	out.cpuBlocks = blockRatios(cpuUs, notes, latencyBlocks, durableBlockCycles)
	out.throughput = quantile(blockRatios(backlogs, replaySecs, latencyBlocks, durableBlockCycles), calmHigh)
	out.delivery = ids
	out.extra = []namedValue{{"store.recover_s", "s", quantile(recover, 0.5)}}
	out.layers = map[string]float64{
		"mobility.replays_per_handover": float64(replays) / float64(max(cycles, 1)),
	}
	out.notes = append(out.notes, fmt.Sprintf("%d backlogs of %d notes reattached; %d rebuilds, recover_s %.3v",
		cycles, durableBacklog, len(recover), recover))
	return out, nil
}
