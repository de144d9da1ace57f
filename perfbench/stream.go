package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rebeca"
)

// The stream workload: a 3-broker line, the publisher on B2 and one
// Block-flow-controlled subscriber on B0 with one matching subscription.
// An open-loop phase at a fixed rate gives the latency samples; a
// saturating phase gives the throughput and carries the publisher past
// the subscriber's 64k per-publisher dedup window.
const (
	streamRate      = 4000 // notes per second in the open-loop phase
	streamOpenShare = 0.4  // share of the measured time spent open-loop
	streamWarmup    = 2000 // notes published and drained during set-up
	// streamWindow caps the notes published but not yet received in the
	// saturating phase. Block flow control alone does not hold the
	// publisher back (the brokers queue what the subscriber cannot take
	// yet), so without this cap a slow subscriber leaves a backlog that
	// takes minutes to drain.
	streamWindow = 2048
	// streamLogCap pre-sizes the receipt log past what a run on the seed
	// commit receives, so the log's doublings do not make the peak-heap
	// figure depend on when collections happen.
	streamLogCap = 1 << 17
)

var streamFilter = rebeca.NewFilter(rebeca.Eq("topic", rebeca.String("ticks")))

var streamSymbols = func() []string {
	s := make([]string, 64)
	for i := range s {
		s[i] = fmt.Sprintf("SYM%02d", i)
	}
	return s
}()

// tickGen makes the stream's notes from the run's seed.
type tickGen struct{ rng *rand.Rand }

func (g *tickGen) next(due time.Duration) map[string]rebeca.Value {
	return map[string]rebeca.Value{
		"topic": rebeca.String("ticks"),
		"sym":   rebeca.String(streamSymbols[g.rng.Intn(len(streamSymbols))]),
		"px":    rebeca.Float(100 + g.rng.Float64()*50),
		"qty":   rebeca.Int(int64(1 + g.rng.Intn(1000))),
		"due":   rebeca.Int(int64(due)),
	}
}

// receipt is one note handed out by a subscriber's stream.
type receipt struct {
	id  rebeca.NotificationID
	at  int64 // ns since the run epoch
	due int64 // the note's due time, ns since the run epoch
}

// streamSink is the subscriber's consumer goroutine: it drains the Block
// stream and logs every receipt.
type streamSink struct {
	epoch time.Time
	rec   *recorder // nil when untraced
	mu    sync.Mutex
	log   []receipt
	count atomic.Int64
	done  chan struct{}
}

func (s *streamSink) run(sub *rebeca.Subscription) {
	defer close(s.done)
	for d := range sub.Events() {
		at := time.Since(s.epoch)
		due, _ := d.Note.Get("due")
		s.mu.Lock()
		s.log = append(s.log, receipt{id: d.Note.ID, at: int64(at), due: due.IntVal()})
		s.mu.Unlock()
		s.count.Add(1)
		s.rec.receipt(d.Note.ID, int64(at))
	}
}

type streamDeploy struct {
	live *rebeca.Live
	pub  rebeca.Port
	sink *streamSink
	gen  *tickGen
	seq  int // notes published so far
}

func (d *streamDeploy) close() {
	_ = d.live.Close()
	<-d.sink.done
}

func buildStream(e *env, rng *rand.Rand) (*streamDeploy, error) {
	opts := []rebeca.Option{rebeca.WithMovement(rebeca.Line(3))}
	if e.rec != nil {
		opts = append(opts, rebeca.WithMiddleware(stage{e.rec}))
	}
	live, err := rebeca.NewLive(opts...)
	if err != nil {
		return nil, err
	}
	if e.rec != nil {
		e.rec.watch(live)
	}
	d := &streamDeploy{live: live, gen: &tickGen{rng: rng}}
	d.sink = &streamSink{epoch: e.epoch, rec: e.rec, done: make(chan struct{}), log: make([]receipt, 0, streamLogCap)}
	sub := live.NewClient("sub")
	s := sub.Subscribe(streamFilter, rebeca.WithOverflow(rebeca.Block))
	go d.sink.run(s)
	d.pub = live.NewClient("pub")
	for _, c := range []struct {
		p rebeca.Port
		b rebeca.NodeID
	}{{sub, "B0"}, {d.pub, "B2"}} {
		if err := e.connect(c.p, c.b); err != nil {
			d.close()
			return nil, err
		}
	}
	live.Settle()
	for i := 0; i < streamWarmup; i++ {
		if _, err := d.pub.Publish(d.gen.next(time.Since(e.epoch))); err != nil {
			d.close()
			return nil, err
		}
	}
	d.seq = streamWarmup
	if !waitCount(&d.sink.count, streamWarmup, time.Now().Add(drainTimeout), time.Millisecond, nil) {
		d.close()
		return nil, fmt.Errorf("stream warm-up: %d of %d notes arrived", d.sink.count.Load(), streamWarmup)
	}
	return d, nil
}

func runStream(e *env) (*outcome, error) {
	out := &outcome{}
	epoch := e.epoch
	rng := rand.New(rand.NewSource(e.seed))
	var d *streamDeploy
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if d, err = buildStream(e, rng); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0))
		if i < setupRepeats-1 {
			d.close()
		}
	}
	defer d.close()

	measured := time.Duration(e.seconds * float64(time.Second))
	openFor := time.Duration(float64(measured) * streamOpenShare)
	m := e.meter()
	received0 := d.sink.count.Load()

	// Open loop: Poisson arrivals at streamRate, each timed from its due
	// instant.
	arr := newArrivals(e.seed^0x5eed, streamRate)
	pc := &pacer{start: time.Now()}
	firstOpen := d.seq + 1
	for arr.due() < openFor {
		at := pc.wait(arr.due())
		arr.advance()
		if err := d.publish(e, at.Sub(epoch)); err != nil {
			return nil, err
		}
		m.sample()
	}
	lastOpen := d.seq

	// Saturating: publish back to back for the rest of the measured time,
	// holding back only while streamWindow notes are outstanding.
	satStart := time.Now()
	satEnd := satStart.Add(measured - openFor)
	for time.Now().Before(satEnd) {
		if int64(d.seq)-d.sink.count.Load() >= streamWindow {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if err := d.publish(e, time.Since(epoch)); err != nil {
			return nil, err
		}
		m.sample()
	}
	satStop := time.Now()
	if !waitCount(&d.sink.count, int64(d.seq), time.Now().Add(drainTimeout), time.Millisecond, m) {
		out.notes = append(out.notes, fmt.Sprintf("drain deadline passed with %d of %d notes", d.sink.count.Load(), d.seq))
	}
	out.cost = m.stop()

	d.sink.mu.Lock()
	log := append([]receipt(nil), d.sink.log...)
	d.sink.mu.Unlock()
	owed, timed := newOwedSet(), newOwedSet()
	for s := 1; s <= d.seq; s++ {
		id := rebeca.NotificationID{Publisher: "pub", Seq: uint64(s)}
		owed.add(id)
		if s >= firstOpen && s <= lastOpen {
			timed.add(id)
		}
	}
	out.timed = timed
	out.filters = []rebeca.Filter{streamFilter}
	ids := make([]rebeca.NotificationID, len(log))
	satCount := 0
	satFrom, satTo := int64(satStart.Sub(epoch)), int64(satStop.Sub(epoch))
	for i, r := range log {
		ids[i] = r.id
		if r.id.Seq >= uint64(firstOpen) && r.id.Seq <= uint64(lastOpen) {
			out.latency = append(out.latency, float64(r.at-r.due)/1e6)
		}
		if r.at >= satFrom && r.at < satTo {
			satCount++
		}
	}
	out.verdict = checkLog(owed, ids)
	out.attempted = out.verdict.Owed
	out.delivered = int(d.sink.count.Load() - received0)
	out.throughput = float64(satCount) / satStop.Sub(satStart).Seconds()
	out.late = pc.late
	out.delivery = ids
	out.notes = append(out.notes,
		fmt.Sprintf("open loop: %d notes at %d/s; saturating: %d notes delivered in %s",
			lastOpen-firstOpen+1, streamRate, satCount, satStop.Sub(satStart).Round(time.Millisecond)))
	return out, nil
}

// publish sends the next note, timed from due.
func (d *streamDeploy) publish(e *env, due time.Duration) error {
	if _, err := publishTraced(e, d.pub, d.gen.next(due)); err != nil {
		return err
	}
	d.seq++
	return nil
}
