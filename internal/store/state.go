package store

import (
	"bytes"
	"sort"
	"time"

	"rebeca/internal/message"
)

// opKind discriminates logged mutations.
type opKind byte

const (
	opAppend opKind = iota + 1
	opAck
	opSnapshot
	// opQueueMeta re-establishes a queue's sequence floor and ack
	// watermark in a compacted log.
	opQueueMeta
)

// op is one logged mutation: an entry of the Memory store's staged log
// and the payload of one WAL record (see record.go for its encoding).
type op struct {
	kind  opKind
	queue string
	seq   uint64
	at    time.Time
	note  message.Notification
	upTo  uint64
	next  uint64
	key   string
	data  []byte // opSnapshot: nil deletes the key, empty is a value
}

// memQueue is the live (replayed) state of one queue.
type memQueue struct {
	next    uint64 // next sequence to assign
	acked   uint64
	records []Record // pending records, sequence order
}

// state is the live index both stores rebuild from their logs: queues
// and snapshots. Not synchronized; the owning store holds its lock.
type state struct {
	queues map[string]*memQueue
	snaps  map[string][]byte
}

func (s *state) reset() {
	s.queues = make(map[string]*memQueue)
	s.snaps = make(map[string][]byte)
}

func (s *state) queue(name string) *memQueue {
	q, ok := s.queues[name]
	if !ok {
		q = &memQueue{next: 1}
		s.queues[name] = q
	}
	return q
}

// apply folds one written or recovered op into the live state.
func (s *state) apply(o op) {
	switch o.kind {
	case opAppend:
		q := s.queue(o.queue)
		if o.seq+1 > q.next {
			q.next = o.seq + 1
		}
		// Idempotence guard: a crash between a WAL Compact's segment
		// rewrite and its old-segment deletion leaves the same append in
		// two segments. Live appends are strictly increasing per queue, so
		// a sequence at or below the current tail is a replayed duplicate,
		// not data.
		dup := len(q.records) > 0 && o.seq <= q.records[len(q.records)-1].Seq
		if o.seq > q.acked && !dup {
			q.records = append(q.records, Record{Queue: o.queue, Seq: o.seq, At: o.at, Note: o.note})
		}
	case opAck:
		q := s.queue(o.queue)
		upTo := o.upTo
		if upTo >= q.next {
			upTo = q.next - 1
		}
		if upTo > q.acked {
			q.acked = upTo
		}
		i := 0
		for i < len(q.records) && q.records[i].Seq <= q.acked {
			i++
		}
		if i > 0 {
			q.records = append(q.records[:0], q.records[i:]...)
		}
	case opSnapshot:
		if o.data == nil {
			delete(s.snaps, o.key)
		} else {
			s.snaps[o.key] = bytes.Clone(o.data)
		}
	case opQueueMeta:
		q := s.queue(o.queue)
		if o.next > q.next {
			q.next = o.next
		}
		if o.upTo > q.acked {
			q.acked = o.upTo
		}
	}
}

// eachLive calls fn with the minimal op sequence reproducing the live
// state — the body of a compacted log — in a deterministic order, and
// stops at fn's first error.
func (s *state) eachLive(fn func(o *op) error) error {
	names := make([]string, 0, len(s.queues))
	for name := range s.queues {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q := s.queues[name]
		if q.next > 1 {
			if err := fn(&op{kind: opQueueMeta, queue: name, next: q.next, upTo: q.acked}); err != nil {
				return err
			}
		}
		for _, r := range q.records {
			if err := fn(&op{kind: opAppend, queue: name, seq: r.Seq, at: r.At, note: r.Note}); err != nil {
				return err
			}
		}
	}
	keys := make([]string, 0, len(s.snaps))
	for k := range s.snaps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := fn(&op{kind: opSnapshot, key: k, data: s.snaps[k]}); err != nil {
			return err
		}
	}
	return nil
}

func (s *state) replayFrom(queue string, after uint64) []Record {
	q, ok := s.queues[queue]
	if !ok {
		return nil
	}
	var out []Record
	for _, r := range q.records {
		if r.Seq > after {
			out = append(out, r)
		}
	}
	return out
}

func (s *state) loadSnapshot(key string) ([]byte, bool) {
	b, ok := s.snaps[key]
	if !ok {
		return nil, false
	}
	return bytes.Clone(b), true
}

func (s *state) snapshots(prefix string) map[string][]byte {
	out := make(map[string][]byte)
	for k, v := range s.snaps {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out[k] = bytes.Clone(v)
		}
	}
	return out
}

func (s *state) queueState(queue string) QueueState {
	q, ok := s.queues[queue]
	if !ok {
		return QueueState{Next: 1}
	}
	return QueueState{Next: q.next, Acked: q.acked, Pending: len(q.records)}
}
