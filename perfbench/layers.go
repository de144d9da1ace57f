package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rebeca"
	"rebeca/internal/client"
	"rebeca/internal/codec"
	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/routing"
	"rebeca/internal/store"
)

// layerUnits names every per-layer metric the traced run reports, with its
// unit. A layer a workload does not exercise reports 0. README.md gives
// the end-to-end metric and workload each one is expected to move.
var layerUnits = map[string]string{
	"client.publish_us_p50":         "us",
	"client.dedup_seen_ns":          "ns",
	"client.dedup_tail_ratio":       "ratio",
	"client.egress_us_p50":          "us",
	"client.egress_us_p99":          "us",
	"client.connect_ms_p50":         "ms",
	"codec.encode_ns":               "ns",
	"codec.decode_ns":               "ns",
	"codec.decode_allocs":           "count",
	"codec.frame_bytes":             "bytes",
	"wire.ingress_us_p50":           "us",
	"wire.ingress_us_p99":           "us",
	"wire.hop_us_p50":               "us",
	"broker.publish_self_us_p50":    "us",
	"broker.deliver_self_us_p50":    "us",
	"broker.forwards_per_note":      "count",
	"routing.match_ns":              "ns",
	"routing.subscribe_us_p50":      "us",
	"routing.table_entries":         "count",
	"overlay.link_transitions":      "count",
	"overlay.pending_max":           "count",
	"mobility.replays_per_handover": "count",
	"core.prearrival_frac":          "ratio",
	"core.first_local_p50_ms":       "ms",
	"core.first_local_p99_ms":       "ms",
	"store.append_us_p50":           "us",
	"store.append_us_p99":           "us",
	"store.append_nosync_us":        "us",
	"store.recover_us_per_record":   "us",
	"store.bytes_per_record":        "bytes",
	"store.recover_s":               "s",
	"sim.msgs_per_vs":               "1/s",
	"sim.ns_per_msg":                "ns",
	"sim.speed_x":                   "x",
	"gen.late_ms_p99":               "ms",
	"e2e.latency_p90_ms":            "ms",
	"e2e.latency_p99_ms":            "ms",
	"trace.overhead_frac":           "ratio",
}

// Replay sizes: enough records for stable means, small enough that the
// fsync'd replay stays well under a second.
const (
	syncedAppends   = 1000
	unsyncedAppends = 5000
	// dedupReplayCap bounds the dedup replay just past the 64k
	// per-publisher window, so the replay crosses the window (where the
	// cost per Seen must stay flat) without paying for an unbounded tail.
	dedupReplayCap = client.DefaultDedupWindow + client.DefaultDedupWindow/16
)

// perLayer computes the per-layer metrics of a traced run: span-derived
// numbers from the run itself, and replays of the run's own generated
// notes, subscriptions and delivery log through the internal packages.
func perLayer(e *env, o *outcome, spans []span) (map[string]float64, error) {
	l := make(map[string]float64)
	for k, v := range o.layers {
		l[k] = v
	}
	// Transit times only for the notes the latency samples come from.
	timed := func(id rebeca.NotificationID) bool { return o.timed == nil || o.timed.has(id) }
	l["client.publish_us_p50"] = quantile(durations(spans, spanPublish, timed), 0.5)
	l["client.connect_ms_p50"] = quantile(durations(spans, spanConnect, nil), 0.5) / 1e3
	egress := egressTimes(spans, timed)
	l["client.egress_us_p50"] = quantile(egress, 0.5)
	l["client.egress_us_p99"] = quantile(egress, 0.99)
	ingress := durations(spans, spanIngress, timed)
	l["wire.ingress_us_p50"] = quantile(ingress, 0.5)
	l["wire.ingress_us_p99"] = quantile(ingress, 0.99)
	hops, forwards, notes := hopTimes(spans, timed)
	l["wire.hop_us_p50"] = quantile(hops, 0.5)
	l["broker.forwards_per_note"] = float64(forwards) / float64(max(notes, 1))
	l["broker.publish_self_us_p50"] = quantile(selfTimes(spans, spanBrokerPub), 0.5)
	l["broker.deliver_self_us_p50"] = quantile(selfTimes(spans, spanBrokerDel), 0.5)
	l["routing.subscribe_us_p50"] = quantile(durations(spans, spanSubscribe, nil), 0.5)
	e.rec.mu.Lock()
	for _, n := range e.rec.tables {
		l["routing.table_entries"] += float64(n)
	}
	e.rec.mu.Unlock()
	l["overlay.link_transitions"] = float64(e.rec.links.Load())
	l["overlay.pending_max"] = float64(e.rec.pendingMax.Load())
	l["gen.late_ms_p99"] = quantile(o.late, 0.99)

	l["client.dedup_seen_ns"], l["client.dedup_tail_ratio"] = replayDedup(o.delivery)
	msgs := publishMessages(e.kept)
	l["routing.match_ns"] = replayMatch(o.filters, msgs)
	for _, replay := range []func() (map[string]float64, error){
		func() (map[string]float64, error) { return replayCodec(msgs) },
		func() (map[string]float64, error) { return replayStore(e.dir, msgs) },
	} {
		m, err := replay()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			l[k] = v
		}
	}
	return l, nil
}

// egressTimes is, per stream receipt, the time since the note's last
// broker-side delivery (its parent span), in microseconds.
func egressTimes(spans []span, keep func(rebeca.NotificationID) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == spanReceipt && keep(s.Note) && s.Parent >= 0 && spans[s.Parent].End <= s.Start {
			out = append(out, float64(s.Start-spans[s.Parent].End)/1e3)
		}
	}
	return out
}

// hopTimes returns the broker-to-broker transit times (OnPublish start at
// one broker to OnPublish start at the next, per note), the number of
// forwarded publishes, and the number of notes routed at a border broker.
func hopTimes(spans []span, keep func(rebeca.NotificationID) bool) (hops []float64, forwards, notes int) {
	byNote := make(map[rebeca.NotificationID][]int64)
	for _, s := range spans {
		if s.Name != spanBrokerPub || !keep(s.Note) {
			continue
		}
		byNote[s.Note] = append(byNote[s.Note], s.Start)
		if s.From == s.Note.Publisher {
			notes++
		} else {
			forwards++
		}
	}
	for _, starts := range byNote {
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		for i := 1; i < len(starts); i++ {
			hops = append(hops, float64(starts[i]-starts[i-1])/1e3)
		}
	}
	return hops, forwards, notes
}

// replayDedup feeds the run's delivery log, in receipt order, through a
// fresh client.DedupSet and returns the mean cost per Seen and the ratio
// of the last quarter's cost per Seen to the first quarter's.
func replayDedup(ids []rebeca.NotificationID) (meanNs, tailRatio float64) {
	if len(ids) > dedupReplayCap {
		ids = ids[:dedupReplayCap]
	}
	q := len(ids) / 4
	if q == 0 {
		return 0, 0
	}
	set := client.NewDedupSet(0)
	var total time.Duration
	var quarters [4]time.Duration
	for k := 0; k < 4; k++ {
		t0 := time.Now()
		for _, id := range ids[k*q : (k+1)*q] {
			set.Seen(id)
		}
		quarters[k] = time.Since(t0)
		total += quarters[k]
	}
	return float64(total.Nanoseconds()) / float64(4*q), float64(quarters[3]) / float64(max(quarters[0], 1))
}

// publishMessages turns the kept generated notes into publish messages as
// a client port sends them.
func publishMessages(kept []map[string]rebeca.Value) []proto.Message {
	msgs := make([]proto.Message, len(kept))
	now := time.Now()
	for i, attrs := range kept {
		n := message.NewNotification(attrs)
		n.ID = message.NotificationID{Publisher: "pub", Seq: uint64(i + 1)}
		n.Published = now
		msgs[i] = proto.Message{Kind: proto.KPublish, Client: "pub", Note: &n}
	}
	return msgs
}

// replayCodec encodes and decodes every message once.
func replayCodec(msgs []proto.Message) (map[string]float64, error) {
	out := make(map[string]float64)
	if len(msgs) == 0 {
		return out, nil
	}
	frames := make([][]byte, len(msgs))
	buf := make([]byte, 0, 4096)
	t0 := time.Now()
	for i := range msgs {
		// One reused buffer, as the conn writer encodes.
		buf = codec.AppendMessage(buf[:0], &msgs[i])
	}
	enc := time.Since(t0)
	total := 0
	for i := range msgs {
		frames[i] = codec.AppendMessage(nil, &msgs[i])
		total += len(frames[i])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	for _, f := range frames {
		if _, err := codec.DecodeMessage(f); err != nil {
			return nil, fmt.Errorf("codec replay: %w", err)
		}
	}
	dec := time.Since(t0)
	runtime.ReadMemStats(&after)
	n := float64(len(msgs))
	out["codec.encode_ns"] = float64(enc.Nanoseconds()) / n
	out["codec.decode_ns"] = float64(dec.Nanoseconds()) / n
	out["codec.decode_allocs"] = float64(after.Mallocs-before.Mallocs) / n
	out["codec.frame_bytes"] = float64(total) / n
	return out, nil
}

// replayMatch installs the workload's subscriptions in one indexed routing
// table (location filters resolved to one cell, as a border broker holds
// them) and matches every note against it.
func replayMatch(filters []rebeca.Filter, msgs []proto.Message) float64 {
	if len(filters) == 0 || len(msgs) == 0 {
		return 0
	}
	t := routing.NewIndexedTable()
	for i, f := range filters {
		if f.LocationDependent() {
			f = f.ResolveMyloc([]string{"region-B0"})
		}
		t.Add(proto.Subscription{ID: message.SubID(fmt.Sprintf("s%d", i)), Filter: f}, message.NodeID(fmt.Sprintf("L%d", i%4)))
	}
	t0 := time.Now()
	for i := range msgs {
		t.Match(*msgs[i].Note, "")
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(msgs))
}

// replayStore appends the notes to fresh WALs in the scratch directory:
// with fsync (per-append latency), without (mean cost), then reopens the
// unsynced log (recovery cost per record) and reports its size.
func replayStore(dir string, msgs []proto.Message) (map[string]float64, error) {
	out := make(map[string]float64)
	if len(msgs) == 0 {
		return out, nil
	}
	base, err := os.MkdirTemp(dir, "store-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	note := func(i int) message.Notification { return *msgs[i%len(msgs)].Note }

	synced, err := store.OpenWAL(filepath.Join(base, "sync"))
	if err != nil {
		return nil, err
	}
	lat := make([]float64, syncedAppends)
	for i := range lat {
		t0 := time.Now()
		if _, err := synced.Append("q", note(i), t0); err != nil {
			_ = synced.Close()
			return nil, err
		}
		lat[i] = us(time.Since(t0))
	}
	if err := synced.Close(); err != nil {
		return nil, err
	}
	out["store.append_us_p50"] = quantile(lat, 0.5)
	out["store.append_us_p99"] = quantile(lat, 0.99)

	nsDir := filepath.Join(base, "nosync")
	unsynced, err := store.OpenWAL(nsDir, store.WALNoSync())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < unsyncedAppends; i++ {
		if _, err := unsynced.Append("q", note(i), t0); err != nil {
			_ = unsynced.Close()
			return nil, err
		}
	}
	out["store.append_nosync_us"] = us(time.Since(t0)) / unsyncedAppends
	stats, err := unsynced.Stats()
	if err != nil {
		_ = unsynced.Close()
		return nil, err
	}
	out["store.bytes_per_record"] = float64(stats.Bytes) / unsyncedAppends
	if err := unsynced.Close(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	reopened, err := store.OpenWAL(nsDir, store.WALNoSync())
	if err != nil {
		return nil, err
	}
	out["store.recover_us_per_record"] = us(time.Since(t0)) / unsyncedAppends
	if got := reopened.State("q").Pending; got != unsyncedAppends {
		_ = reopened.Close()
		return nil, fmt.Errorf("store replay: recovered %d of %d records", got, unsyncedAppends)
	}
	return out, reopened.Close()
}
