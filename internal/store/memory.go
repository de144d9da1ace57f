package store

import (
	"bytes"
	"sync"
	"time"

	"rebeca/internal/message"
)

// Memory is the in-process Store: the zero-cost default, and — through its
// fault hook and Crash — the harness for recovery tests on the virtual
// clock. Safe for concurrent use.
//
// Memory models durability the way a WAL does: mutations are staged in an
// ordered log and become durable when a Sync succeeds; Crash discards
// everything staged after the last successful Sync.
type Memory struct {
	mu     sync.Mutex
	ops    []op
	synced int // ops[:synced] are durable
	faults func() error

	state
	closed bool
}

var _ Store = (*Memory)(nil)

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	m := &Memory{}
	m.reset()
	return m
}

// SetSyncFault installs a hook consulted on every Sync; a non-nil return
// fails that Sync (the staged suffix stays pending and is covered by the
// next successful Sync). Pass nil to clear.
func (m *Memory) SetSyncFault(fn func() error) {
	m.mu.Lock()
	m.faults = fn
	m.mu.Unlock()
}

// FailSyncs makes the next n Syncs fail — the canonical transient-fsync
// fault schedule used by recovery tests.
func (m *Memory) FailSyncs(n int, err error) {
	remaining := n
	m.SetSyncFault(func() error {
		if remaining <= 0 {
			return nil
		}
		remaining--
		return err
	})
}

// Crash simulates a process kill: every mutation staged after the last
// successful Sync is discarded and the live state is rebuilt from the
// durable prefix. The store remains usable (the "restarted" deployment
// reopens it).
func (m *Memory) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops = m.ops[:m.synced]
	m.rebuild()
}

// rebuild replays the op log into a fresh live state. Callers hold m.mu.
func (m *Memory) rebuild() {
	m.reset()
	for _, o := range m.ops {
		m.apply(o)
	}
}

// stage logs a mutation, applies it to the live state, and attempts to
// sync it durable. A sync fault leaves the op staged: it stays visible to
// readers (the process has it in memory) but a Crash before the next
// successful Sync discards it — exactly a WAL's window.
func (m *Memory) stage(o op) error {
	m.ops = append(m.ops, o)
	m.apply(o)
	return m.syncLocked()
}

func (m *Memory) syncLocked() error {
	if m.faults != nil {
		if err := m.faults(); err != nil {
			return err
		}
	}
	m.synced = len(m.ops)
	return nil
}

// Append implements Store. A sync fault is not an append failure: the
// record is staged and remains pending for the next Sync, so callers keep
// the at-least-once invariant without retry loops.
func (m *Memory) Append(queue string, n message.Notification, at time.Time) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queue(queue)
	seq := q.next
	_ = m.stage(op{kind: opAppend, queue: queue, seq: seq, at: at, note: n})
	return seq, nil
}

// ReplayFrom implements Store.
func (m *Memory) ReplayFrom(queue string, after uint64) ([]Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replayFrom(queue, after), nil
}

// Ack implements Store.
func (m *Memory) Ack(queue string, upTo uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.queues[queue]; !ok {
		return nil
	}
	_ = m.stage(op{kind: opAck, queue: queue, upTo: upTo})
	return nil
}

// Snapshot implements Store.
func (m *Memory) Snapshot(key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.stage(op{kind: opSnapshot, key: key, data: bytes.Clone(data)})
	return nil
}

// LoadSnapshot implements Store.
func (m *Memory) LoadSnapshot(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.loadSnapshot(key)
}

// Snapshots implements Store.
func (m *Memory) Snapshots(prefix string) map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshots(prefix)
}

// Compact implements Store: the op log is rewritten to the minimal set
// reproducing the live state, and the whole rewrite is marked durable
// (memory has no fsync to fail at compaction).
func (m *Memory) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ops []op
	_ = m.eachLive(func(o *op) error {
		ops = append(ops, *o)
		return nil
	})
	// The compacted log is self-contained: rebuild the live state from it
	// so compaction bugs surface immediately, not at the next Crash.
	m.ops = ops
	m.synced = len(ops)
	m.rebuild()
	return nil
}

// Sync implements Store.
func (m *Memory) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncLocked()
}

// Close implements Store.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return m.syncLocked()
}

// State reports a queue's bookkeeping (tests, stats).
func (m *Memory) State(queue string) QueueState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queueState(queue)
}
