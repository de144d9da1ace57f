package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rebeca/internal/message"
)

// richNote carries every Value kind and, when traced, a hop trail.
func richNote(seq uint64, traced bool) message.Notification {
	n := message.NewNotification(map[string]message.Value{
		"seq":   message.Int(int64(seq)),
		"neg":   message.Int(-1 << 40),
		"s":     message.String("ünïcode\x00bytes"),
		"empty": message.String(""),
		"f":     message.Float(-2.5e-300),
		"t":     message.Bool(true),
		"no":    message.Bool(false),
		"nil":   {},
	})
	n.ID = message.NotificationID{Publisher: "pub", Seq: seq}
	n.Published = t0.Add(time.Duration(seq) * time.Millisecond)
	if traced {
		n.Path = []message.HopStamp{
			{Broker: "B1", At: t0.Add(time.Microsecond)},
			{Broker: "B2", At: t0.Add(3 * time.Microsecond)},
		}
	}
	return n
}

// sameNote compares notifications field by field: times by Equal (the
// decoder returns them in the local zone), values exactly.
func sameNote(t *testing.T, got, want message.Notification) {
	t.Helper()
	if got.ID != want.ID || !got.Published.Equal(want.Published) {
		t.Fatalf("note header = %v@%v, want %v@%v", got.ID, got.Published, want.ID, want.Published)
	}
	if !reflect.DeepEqual(got.Attrs, want.Attrs) {
		t.Fatalf("attrs = %v, want %v", got.Attrs, want.Attrs)
	}
	if len(got.Path) != len(want.Path) {
		t.Fatalf("path = %v, want %v", got.Path, want.Path)
	}
	for i := range want.Path {
		if got.Path[i].Broker != want.Path[i].Broker || !got.Path[i].At.Equal(want.Path[i].At) {
			t.Fatalf("hop %d = %v, want %v", i, got.Path[i], want.Path[i])
		}
	}
}

func TestRecordEncodingRoundTrip(t *testing.T) {
	ops := []op{
		{kind: opAppend, queue: "mob/B1/alice", seq: 7, at: t0, note: richNote(7, false)},
		{kind: opAppend, queue: "q", seq: 1 << 40, note: richNote(8, true)}, // zero At
		{kind: opAck, queue: "q", upTo: 1<<64 - 1},
		{kind: opSnapshot, key: "k", data: []byte("profile")},
		{kind: opSnapshot, key: "k", data: []byte{}},
		{kind: opSnapshot, key: "k"},
		{kind: opQueueMeta, queue: "q", next: 42, upTo: 41},
	}
	for _, o := range ops {
		payload := appendOp(nil, &o)
		got, err := decodeOp(payload)
		if err != nil {
			t.Fatalf("decode kind %d: %v", o.kind, err)
		}
		if got.kind != o.kind || got.queue != o.queue || got.seq != o.seq || got.upTo != o.upTo ||
			got.next != o.next || got.key != o.key || !got.at.Equal(o.at) {
			t.Fatalf("round trip = %+v, want %+v", got, o)
		}
		if (got.data == nil) != (o.data == nil) || !bytes.Equal(got.data, o.data) {
			t.Fatalf("snapshot data = %#v, want %#v", got.data, o.data)
		}
		if o.kind == opAppend {
			sameNote(t, got.note, o.note)
		}
		// Every strict prefix is a torn record: rejected, never a panic.
		for i := 0; i < len(payload); i++ {
			if _, err := decodeOp(payload[:i]); err == nil {
				t.Fatalf("kind %d: %d-byte prefix of a %d-byte record decoded", o.kind, i, len(payload))
			}
		}
		if _, err := decodeOp(append(payload, 0)); err == nil {
			t.Fatalf("kind %d: trailing byte accepted", o.kind)
		}
	}
	if _, err := decodeOp([]byte{99}); err == nil {
		t.Fatal("unknown record kind accepted")
	}
}

// TestWALRoundTripEveryRecordKind drives append, ack, snapshot and (via
// Compact) queue-meta records through close/reopen and Compact.
func TestWALRoundTripEveryRecordKind(t *testing.T) {
	dir := t.TempDir()
	w := reopen(t, dir)
	want := map[uint64]message.Notification{}
	for i := uint64(1); i <= 6; i++ {
		n := richNote(i, i%2 == 0)
		want[i] = n
		if _, err := w.Append("q", n, t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Ack("q", 2)
	_ = w.Snapshot("mob/B1/alice", []byte{0, 1, 2, 0xFF})
	_ = w.Snapshot("gone", []byte("x"))
	_ = w.Snapshot("gone", nil)

	check := func(stage string, s *WAL) {
		t.Helper()
		rs, _ := s.ReplayFrom("q", 0)
		if got := seqs(rs); len(got) != 4 || got[0] != 3 || got[3] != 6 {
			t.Fatalf("%s: replay = %v", stage, got)
		}
		for _, r := range rs {
			if !r.At.Equal(t0.Add(time.Duration(r.Seq) * time.Second)) {
				t.Fatalf("%s: record %d At = %v", stage, r.Seq, r.At)
			}
			sameNote(t, r.Note, want[r.Seq])
		}
		if st := s.State("q"); st != (QueueState{Next: 7, Acked: 2, Pending: 4}) {
			t.Fatalf("%s: queue state = %+v", stage, st)
		}
		if b, ok := s.LoadSnapshot("mob/B1/alice"); !ok || !bytes.Equal(b, []byte{0, 1, 2, 0xFF}) {
			t.Fatalf("%s: snapshot = %v %v", stage, b, ok)
		}
		if _, ok := s.LoadSnapshot("gone"); ok {
			t.Fatalf("%s: deleted snapshot present", stage)
		}
	}
	check("live", w)
	_ = w.Close()
	w = reopen(t, dir)
	check("reopen", w)
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compact", w)
	_ = w.Close()
	w = reopen(t, dir)
	check("reopen after compact", w)
}

// TestSnapshotEmptyBlob: only nil deletes a snapshot; an empty blob is a
// value on every store, across reopen and Compact.
func TestSnapshotEmptyBlob(t *testing.T) {
	cases := []struct {
		name string
		open func(t *testing.T) (Store, func(Store) Store)
	}{
		{"memory", func(t *testing.T) (Store, func(Store) Store) {
			return NewMemory(), func(s Store) Store { s.(*Memory).Crash(); return s }
		}},
		{"wal", func(t *testing.T) (Store, func(Store) Store) {
			dir := t.TempDir()
			return reopen(t, dir), func(s Store) Store { _ = s.Close(); return reopen(t, dir) }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, restart := c.open(t)
			_ = s.Snapshot("empty", []byte{})
			_ = s.Snapshot("deleted", []byte("x"))
			_ = s.Snapshot("deleted", nil)
			check := func(stage string) {
				t.Helper()
				b, ok := s.LoadSnapshot("empty")
				if !ok || b == nil || len(b) != 0 {
					t.Fatalf("%s: LoadSnapshot(empty) = %#v, %v; want []byte{}, true", stage, b, ok)
				}
				if all := s.Snapshots(""); len(all) != 1 || all["empty"] == nil {
					t.Fatalf("%s: Snapshots = %#v", stage, all)
				}
			}
			check("live")
			s = restart(s)
			check("reopen")
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			check("compact")
			s = restart(s)
			check("reopen after compact")
		})
	}
}

func TestWALSegmentsOpenWithHeader(t *testing.T) {
	dir := t.TempDir()
	w := reopen(t, dir, WALSegmentSize(256))
	checkHeaders := func(stage string, minSegs int) {
		t.Helper()
		ids, _ := w.segments()
		if len(ids) < minSegs {
			t.Fatalf("%s: segments %v, want at least %d", stage, ids, minSegs)
		}
		for _, id := range ids {
			b, err := os.ReadFile(filepath.Join(dir, segName(id)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(b, segmentHeader()) {
				t.Fatalf("%s: %s opens with %q", stage, segName(id), b[:min(len(b), segHeaderLen)])
			}
		}
	}
	for i := uint64(1); i <= 20; i++ {
		_, _ = w.Append("q", note("p", i), t0)
	}
	checkHeaders("rotation", 3)
	_ = w.Ack("q", 15)
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	checkHeaders("compaction", 1)
}

// gobSegment builds a segment the way the pre-binary WAL wrote it:
// CRC-framed gob records, no header.
func gobSegment(t *testing.T) []byte {
	t.Helper()
	type legacyRecord struct {
		Kind  int
		Queue string
		Seq   uint64
		At    time.Time
		UpTo  uint64
		Key   string
		Data  []byte
	}
	var seg []byte
	for _, rec := range []legacyRecord{
		{Kind: int(opAppend), Queue: "q", Seq: 1, At: t0},
		{Kind: int(opSnapshot), Key: "mob/B1/alice", Data: []byte("profile")},
	} {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
			t.Fatal(err)
		}
		seg = binary.LittleEndian.AppendUint32(seg, uint32(payload.Len()))
		seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(payload.Bytes()))
		seg = append(seg, payload.Bytes()...)
	}
	return seg
}

func TestWALRefusesPreBinarySegment(t *testing.T) {
	for _, tc := range []struct {
		name string
		seg  func(t *testing.T) []byte
		want string
	}{
		{"gob", gobSegment, "pre-binary"},
		{"unknown version", func(*testing.T) []byte { return append(walMagic[:], 9, 1, 2, 3) }, "version 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seg := tc.seg(t)
			// The lone (hence newest) segment: the one recovery would
			// otherwise treat as a torn tail and truncate.
			path := filepath.Join(dir, segName(1))
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := OpenWAL(dir)
			if err == nil {
				_ = w.Close()
				t.Fatal("OpenWAL accepted a segment it cannot read")
			}
			if !errors.Is(err, ErrWALFormat) || !strings.Contains(err.Error(), segName(1)) ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q: want ErrWALFormat naming %s and %q", err, segName(1), tc.want)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, seg) {
				t.Fatalf("refused segment modified: %d bytes -> %d", len(seg), len(after))
			}
		})
	}
}

// TestWALTornSegmentHeader: a crash while creating a segment leaves a
// strict prefix of its header; recovery rewrites it instead of refusing
// the WAL.
func TestWALTornSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	w := reopen(t, dir)
	_, _ = w.Append("q", note("p", 1), t0)
	_ = w.Close()
	if err := os.WriteFile(filepath.Join(dir, segName(2)), walMagic[:2], 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := reopen(t, dir)
	if seq, err := w2.Append("q", note("p", 2), t0); err != nil || seq != 2 {
		t.Fatalf("append after torn header: seq %d, %v", seq, err)
	}
	_ = w2.Close()
	w3 := reopen(t, dir)
	if rs, _ := w3.ReplayFrom("q", 0); len(rs) != 2 {
		t.Fatalf("after torn header: %v", seqs(rs))
	}
}
