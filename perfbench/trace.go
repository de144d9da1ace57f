package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rebeca"
)

// Span names. The broker.* spans come from the benchmark's middleware
// stage (installed innermost on every broker with WithMiddleware); the
// client.* and wire.* spans from the generator's own calls and receipts.
const (
	spanPublish   = "client.publish"    // Port.Publish call
	spanConnect   = "client.connect"    // Port.Connect call
	spanReceipt   = "client.egress"     // last broker OnDeliver → stream receipt
	spanIngress   = "wire.ingress"      // Port.Publish stamp → border OnPublish
	spanBrokerPub = "broker.publish"    // OnPublish: routing at one broker
	spanBrokerDel = "broker.deliver"    // OnDeliver: one local delivery
	spanSubscribe = "routing.subscribe" // OnSubscribe: one table installation
	spanScenario  = "sim.scenario"      // one Scenario.Run
)

// span is one traced interval. Times are nanoseconds since the run's
// epoch; Parent, assigned by link, indexes the span list (-1: none).
type span struct {
	Name   string                `json:"name"`
	Start  int64                 `json:"start_ns"`
	End    int64                 `json:"end_ns"`
	Parent int                   `json:"parent"`
	Note   rebeca.NotificationID `json:"note"`
	Broker rebeca.NodeID         `json:"broker,omitempty"`
	From   rebeca.NodeID         `json:"from,omitempty"`
}

// recorder keeps spans in memory for the whole traced run; nothing is
// written until the run ends. Brokers on different event loops record
// concurrently, so appends are serialized.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	links atomic.Int64 // overlay link transitions observed
	// pendingMax is the deepest overlay pending queue seen while sampling
	// the watched deployment.
	pendingMax atomic.Int64
	live       atomic.Pointer[rebeca.Live]
	// tables is the largest routing table each broker reported.
	tables map[rebeca.NodeID]int
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, tables: make(map[rebeca.NodeID]int)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// watch makes l the deployment whose overlay queues samplePending reads.
func (r *recorder) watch(l *rebeca.Live) { r.live.Store(l) }

func (r *recorder) samplePending() {
	l := r.live.Load()
	if l == nil {
		return
	}
	for _, b := range l.Brokers() {
		for _, li := range l.LinkInfos(b) {
			if p := int64(li.Pending); p > r.pendingMax.Load() {
				r.pendingMax.Store(p)
			}
		}
	}
}

// connect calls p.Connect(b), wrapped in a span when tracing.
func (e *env) connect(p rebeca.Port, b rebeca.NodeID) error {
	var t0 int64
	if e.rec != nil {
		t0 = e.rec.now()
	}
	if err := p.Connect(b); err != nil {
		return fmt.Errorf("connect %s to %s: %w", p.ID(), b, err)
	}
	if e.rec != nil {
		e.rec.add(span{Name: spanConnect, Start: t0, End: e.rec.now(), Broker: b})
	}
	return nil
}

// publishTraced publishes attrs from p, keeping the note for the layer
// replays and wrapping the call in a span when tracing.
func publishTraced(e *env, p rebeca.Port, attrs map[string]rebeca.Value) (rebeca.NotificationID, error) {
	e.keepNote(attrs)
	var t0 int64
	if e.rec != nil {
		t0 = e.rec.now()
	}
	id, err := p.Publish(attrs)
	if err != nil {
		return id, fmt.Errorf("publish: %w", err)
	}
	if e.rec != nil {
		e.rec.add(span{Name: spanPublish, Start: t0, End: e.rec.now(), Note: id})
	}
	return id, nil
}

// receipt records a stream receipt at ns since the epoch.
func (r *recorder) receipt(id rebeca.NotificationID, at int64) {
	if r != nil {
		r.add(span{Name: spanReceipt, Start: at, End: at, Note: id})
	}
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// stage is the benchmark-owned broker middleware: it times each hook's
// next() (everything inner to it: routing, matching, forwarding, the
// local send) and observes overlay link transitions. It sits innermost,
// after the session layers, so it sees the traffic they pass through.
type stage struct{ r *recorder }

var (
	_ rebeca.Middleware   = stage{}
	_ rebeca.LinkObserver = stage{}
)

func (s stage) OnPublish(b *rebeca.Broker, from rebeca.NodeID, n *rebeca.Notification, next func()) {
	start := s.r.now()
	if !n.Published.IsZero() && from == n.ID.Publisher {
		s.r.add(span{Name: spanIngress, Start: s.r.at(n.Published), End: start, Note: n.ID, Broker: b.ID()})
	}
	next()
	end := s.r.now()
	entries := b.Router().Table().Len()
	s.r.mu.Lock()
	if entries > s.r.tables[b.ID()] {
		s.r.tables[b.ID()] = entries
	}
	s.r.mu.Unlock()
	s.r.add(span{Name: spanBrokerPub, Start: start, End: end, Note: n.ID, Broker: b.ID(), From: from})
}

func (s stage) OnDeliver(b *rebeca.Broker, port rebeca.NodeID, n *rebeca.Notification, _ []rebeca.SubID, next func()) {
	start := s.r.now()
	next()
	s.r.add(span{Name: spanBrokerDel, Start: start, End: s.r.now(), Note: n.ID, Broker: b.ID(), From: port})
}

func (s stage) OnSubscribe(b *rebeca.Broker, from rebeca.NodeID, _ *rebeca.SubscriptionInfo, next func()) {
	start := s.r.now()
	next()
	s.r.add(span{Name: spanSubscribe, Start: start, End: s.r.now(), Broker: b.ID(), From: from})
}

func (s stage) OnLinkChange(*rebeca.Broker, rebeca.LinkEvent) { s.r.links.Add(1) }

// link assigns parents: a broker.deliver span's parent is the
// broker.publish span of the same note at the same broker that encloses
// it (the delivery ran inside that routing step), and a client.egress
// span's parent is the note's last broker.deliver span.
func link(spans []span) {
	type key struct {
		note   rebeca.NotificationID
		broker rebeca.NodeID
	}
	pubs := make(map[key][]int)
	lastDeliver := make(map[rebeca.NotificationID]int)
	for i := range spans {
		spans[i].Parent = -1
		switch spans[i].Name {
		case spanBrokerPub:
			k := key{spans[i].Note, spans[i].Broker}
			pubs[k] = append(pubs[k], i)
		case spanBrokerDel:
			if j, ok := lastDeliver[spans[i].Note]; !ok || spans[j].End < spans[i].End {
				lastDeliver[spans[i].Note] = i
			}
		}
	}
	for i := range spans {
		switch spans[i].Name {
		case spanBrokerDel:
			for _, j := range pubs[key{spans[i].Note, spans[i].Broker}] {
				if spans[j].Start <= spans[i].Start && spans[i].End <= spans[j].End {
					spans[i].Parent = j
					break
				}
			}
		case spanReceipt:
			if j, ok := lastDeliver[spans[i].Note]; ok {
				spans[i].Parent = j
			}
		}
	}
}

// selfTimes returns, for every span named name, its duration minus the
// part covered by its child spans, in microseconds.
func selfTimes(spans []span, name string) []float64 {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(selfTime(interval{s.Start, s.End}, children[i]))/1e3)
		}
	}
	return out
}

// durations returns the duration of every span named name whose note
// keep accepts (nil: all), in microseconds.
func durations(spans []span, name string, keep func(rebeca.NotificationID) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (keep == nil || keep(s.Note)) {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
