package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// validSegment returns the bytes of a one-segment WAL holding every
// record kind.
func validSegment(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	w, err := OpenWAL(dir, WALNoSync())
	if err != nil {
		tb.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		_, _ = w.Append("q", richNote(i, i%2 == 0), t0)
	}
	_ = w.Ack("q", 1)
	_ = w.Snapshot("k", []byte("v"))
	_ = w.Snapshot("e", []byte{})
	if err := w.Compact(); err != nil { // adds queue-meta
		tb.Fatal(err)
	}
	_, _ = w.Append("q", richNote(5, true), t0)
	_ = w.Close()
	b, err := os.ReadFile(filepath.Join(dir, segName(w.segID)))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// goodPrefix walks a segment's frames independently of the WAL and
// returns the length of the longest prefix made of the header and whole
// frames with valid CRCs.
func goodPrefix(seg []byte) int {
	if !bytes.HasPrefix(seg, segmentHeader()) {
		return 0
	}
	off := segHeaderLen
	for off+frameHeaderLen <= len(seg) {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		sum := binary.LittleEndian.Uint32(seg[off+4:])
		end := off + frameHeaderLen + n
		if n < 0 || end > len(seg) || end < off || crc32.ChecksumIEEE(seg[off+frameHeaderLen:end]) != sum {
			break
		}
		off = end
	}
	return off
}

// stateKey renders a WAL's live state bit-exactly (floats by their bits,
// so NaN compares equal to itself) for comparing two recoveries.
func stateKey(w *WAL) string {
	var b []byte
	_ = w.eachLive(func(o *op) error {
		b = append(b, byte(o.kind))
		b = append(b, o.queue...)
		b = binary.AppendUvarint(b, o.seq)
		b = binary.AppendUvarint(b, o.next)
		b = binary.AppendUvarint(b, o.upTo)
		b = binary.AppendVarint(b, o.at.UnixNano())
		b = append(b, o.key...)
		b = append(b, o.data...)
		b = append(b, o.note.ID.String()...)
		for _, k := range sortedKeys(o.note.Attrs) {
			v := o.note.Attrs[k]
			b = append(b, k...)
			b = append(b, byte(v.Kind()), boolByte(v.BoolVal()))
			b = append(b, v.Str()...)
			b = binary.AppendVarint(b, v.IntVal())
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.FloatVal()))
		}
		for _, h := range o.note.Path {
			b = append(b, h.Broker...)
			b = binary.AppendVarint(b, h.At.UnixNano())
		}
		return nil
	})
	return string(b)
}

// FuzzWALSegment feeds arbitrary bytes to recovery as a segment file,
// either the newest segment (behind a valid older one) or an older one
// (before a valid newest one). OpenWAL must never panic, may truncate
// only the newest segment — and only to a prefix of header and whole
// valid-CRC frames — and never recovers anything from behind the cut: a
// second recovery of the truncated files reproduces the first exactly.
func FuzzWALSegment(f *testing.F) {
	seg := validSegment(f)
	f.Add(seg, true)
	f.Add(seg, false)
	f.Add(seg[:len(seg)-3], true) // torn tail
	f.Add(seg[:len(seg)/2], false)
	for _, at := range []int{2, segHeaderLen + 1, segHeaderLen + 5, len(seg) / 2, len(seg) - 1} {
		flipped := bytes.Clone(seg)
		flipped[at] ^= 0x40
		f.Add(flipped, true)
	}
	huge := append(segmentHeader(), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0) // declared length far past the cap
	f.Add(huge, true)
	f.Add(walMagic[:3], true) // torn header
	f.Add([]byte{}, false)

	f.Fuzz(func(t *testing.T, data []byte, newest bool) {
		dir := t.TempDir()
		fuzzed, fixed := 1, 2
		if newest {
			fuzzed, fixed = 2, 1
		}
		write := func(id int, b []byte) {
			if err := os.WriteFile(filepath.Join(dir, segName(id)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(fuzzed, data)
		write(fixed, seg)

		w, err := OpenWAL(dir, WALNoSync())
		if err == nil {
			defer w.Close()
		}
		if got, _ := os.ReadFile(filepath.Join(dir, segName(fixed))); !bytes.Equal(got, seg) {
			t.Fatalf("valid segment %s modified", segName(fixed))
		}
		got, _ := os.ReadFile(filepath.Join(dir, segName(fuzzed)))
		if !newest || err != nil {
			if !bytes.Equal(got, data) {
				t.Fatalf("older or refused segment modified (err %v)", err)
			}
			if !newest && err == nil && goodPrefix(data) != len(data) {
				t.Fatalf("older segment with a bad frame accepted")
			}
			return
		}
		if bytes.Equal(got, segmentHeader()) && len(data) < segHeaderLen {
			return // a torn header rewritten whole
		}
		if !bytes.HasPrefix(data, got) || goodPrefix(got) != len(got) {
			t.Fatalf("newest segment cut to %d bytes: not a whole-frame valid-CRC prefix of %d", len(got), len(data))
		}
		again, err := OpenWAL(dir, WALNoSync())
		if err != nil {
			t.Fatalf("reopening a recovered WAL: %v", err)
		}
		defer again.Close()
		if stateKey(w) != stateKey(again) {
			t.Fatal("first recovery surfaced state from behind the truncation point")
		}
	})
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
