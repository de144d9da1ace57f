package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rebeca/internal/codec"
	"rebeca/internal/message"
)

// DefaultSegmentSize is the rotation threshold for WAL segment files.
const DefaultSegmentSize = 4 << 20 // 4 MiB

// Segment header: every segment file opens with walMagic and a format
// version byte, written and fsynced when the segment is created, so a
// segment in any other format is refused instead of misread.
var walMagic = [4]byte{'R', 'B', 'W', 'L'}

// walVersion is the record format version: 1 is the binary record
// encoding of record.go. Segments of the earlier gob encoding have no
// header at all.
const walVersion byte = 1

const (
	segHeaderLen   = len(walMagic) + 1
	frameHeaderLen = 8
	// maxRecord bounds one record payload: room for a spilled link frame
	// (at most codec.MaxFrame) plus its record fields. Recovery checks a
	// frame's declared length against it before allocating.
	maxRecord = codec.MaxFrame + 64<<10
	// keepFrameBuf bounds the frame scratch a WAL keeps between writes, so
	// one oversized record does not pin its buffer for the WAL's lifetime.
	keepFrameBuf = 64 << 10
)

// ErrWALFormat reports a segment this build cannot read: a pre-binary
// (gob-era) segment without a header, or an unknown format version.
var ErrWALFormat = errors.New("store: unreadable WAL segment format")

// WAL is the file-backed Store: an append-only log of CRC-framed binary
// records split into rotating segment files (wal-<n>.seg). Every record
// is fsynced before Append returns (unless WALNoSync), so a killed
// process loses nothing it acknowledged. Compact rewrites the live state
// (pending records, watermarks, snapshots) into a fresh segment and
// deletes the older ones — the ack-driven garbage collection that keeps
// cancelled durable subscriptions from pinning segments forever.
//
// Segment format, little-endian:
//
//	segment := magic:"RBWL" version:byte frame*
//	frame   := [4B payload length][4B IEEE CRC-32 of payload][payload]
//
// The payload is one binary record (see record.go). Recovery reads
// segments in order, verifying each frame's CRC. A short or corrupt frame
// in the newest segment marks the torn tail of an interrupted write:
// recovery stops there and the file is truncated to the last good frame.
// Corruption in an older segment is reported as an error — that is data
// loss, not a torn tail. A segment without a valid header is never
// truncated: OpenWAL fails with ErrWALFormat and leaves it untouched.
type WAL struct {
	mu     sync.Mutex
	dir    string
	maxSeg int64
	sync   bool

	seg     *os.File // active segment, opened for append
	segID   int
	segSize int64
	buf     []byte // frame scratch: header and payload, written at once

	state
	closed bool

	// log receives structured segment lifecycle events (rotation,
	// compaction); nil stays silent.
	log *slog.Logger
}

var _ Store = (*WAL)(nil)

// SetLogger attaches a structured logger for WAL segment lifecycle
// events (nil detaches).
func (w *WAL) SetLogger(l *slog.Logger) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log = l
}

// WALOption configures OpenWAL.
type WALOption func(*WAL)

// WALSegmentSize sets the segment rotation threshold in bytes.
func WALSegmentSize(n int64) WALOption {
	return func(w *WAL) {
		if n > 0 {
			w.maxSeg = n
		}
	}
}

// WALNoSync disables the per-append fsync (benchmarks; a crash may lose
// the unsynced tail).
func WALNoSync() WALOption {
	return func(w *WAL) { w.sync = false }
}

// OpenWAL opens (creating if needed) a write-ahead log in dir and recovers
// its state from the existing segments. A directory holding a segment in
// another format (a pre-binary WAL) is refused with ErrWALFormat.
func OpenWAL(dir string, opts ...WALOption) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	w := &WAL{
		dir:    dir,
		maxSeg: DefaultSegmentSize,
		sync:   true,
	}
	w.reset()
	for _, o := range opts {
		o(w)
	}
	if err := w.recover(); err != nil {
		return nil, err
	}
	return w, nil
}

// Dir returns the WAL's directory.
func (w *WAL) Dir() string { return w.dir }

func segName(id int) string { return fmt.Sprintf("wal-%06d.seg", id) }

// segments lists existing segment IDs in ascending order.
func (w *WAL) segments() ([]int, error) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, e := range ents {
		var id int
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.seg", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// recover replays all segments into the in-memory index and opens the
// newest one for append.
func (w *WAL) recover() error {
	ids, err := w.segments()
	if err != nil {
		return fmt.Errorf("store: scan wal dir: %w", err)
	}
	if len(ids) == 0 {
		return w.openSegment(1)
	}
	for i, id := range ids {
		if err := w.replaySegment(id, i == len(ids)-1); err != nil {
			return err
		}
	}
	return w.openSegment(ids[len(ids)-1])
}

// segmentHeader is the header every segment opens with.
func segmentHeader() []byte { return append(walMagic[:len(walMagic):len(walMagic)], walVersion) }

// checkSegmentHeader validates the first bytes of the segment file at
// path; its errors name the file.
func checkSegmentHeader(path string, h []byte) error {
	if len(h) < len(walMagic) || !bytes.Equal(h[:len(walMagic)], walMagic[:]) {
		return fmt.Errorf("%w: %s has no binary segment header: it is a pre-binary (gob-era) WAL segment; "+
			"drain the WAL with the release that wrote it, or delete the directory, before upgrading", ErrWALFormat, path)
	}
	if len(h) < segHeaderLen {
		return fmt.Errorf("%w: %s: torn segment header", ErrWALFormat, path)
	}
	if h[len(walMagic)] != walVersion {
		return fmt.Errorf("%w: %s: unknown WAL format version %d (this build reads version %d)",
			ErrWALFormat, path, h[len(walMagic)], walVersion)
	}
	return nil
}

// replaySegment folds one segment into the index. In the last segment a
// torn tail (short frame, oversized length, CRC mismatch or undecodable
// record) truncates the file; anywhere else it is corruption. A segment
// whose header is missing or unknown is refused untouched — except the
// newest one holding a strict prefix of the header, which a crash while
// creating it left behind before any record was written: it is emptied,
// and openSegment writes the header anew.
func (w *WAL) replaySegment(id int, last bool) error {
	name := segName(id)
	path := filepath.Join(w.dir, name)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size := st.Size()
	r := bufio.NewReaderSize(f, 64<<10)

	var hdr [frameHeaderLen]byte
	n, err := io.ReadFull(r, hdr[:segHeaderLen])
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("store: %s: read header: %w", name, err)
	}
	if last && n < segHeaderLen && bytes.HasPrefix(segmentHeader(), hdr[:n]) {
		if err := os.Truncate(path, 0); err != nil {
			return fmt.Errorf("store: %s: reset torn header: %w", name, err)
		}
		return nil
	}
	if err := checkSegmentHeader(path, hdr[:n]); err != nil {
		return err
	}

	offset := int64(segHeaderLen)
	torn := func(what string) error {
		if !last {
			return fmt.Errorf("store: %s: %s at %d", name, what, offset)
		}
		if err := os.Truncate(path, offset); err != nil {
			return fmt.Errorf("store: %s: truncate torn tail: %w", name, err)
		}
		return nil
	}
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return torn("torn frame header")
			}
			return fmt.Errorf("store: %s: read frame at %d: %w", name, offset, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		// Check the declared length before allocating: a corrupt length
		// must not drive a huge buffer.
		if length > maxRecord || int64(length) > size-offset-frameHeaderLen {
			return torn("torn frame body")
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		payload := buf[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			return torn("torn frame body")
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return torn("CRC mismatch")
		}
		o, err := decodeOp(payload)
		if err != nil {
			return torn(fmt.Sprintf("undecodable record (%v)", err))
		}
		w.apply(o)
		offset += frameHeaderLen + int64(length)
	}
}

// openSegment opens segment id for append. A new (or empty) segment gets
// its header, fsynced before any record can follow it.
func (w *WAL) openSegment(id int) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(id)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("store: open segment: %w", err)
	}
	size := st.Size()
	if size == 0 {
		if _, err := f.Write(segmentHeader()); err != nil {
			_ = f.Close()
			return fmt.Errorf("store: write segment header: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("store: sync segment header: %w", err)
		}
		size = int64(segHeaderLen)
	}
	w.seg = f
	w.segID = id
	w.segSize = size
	return nil
}

// write frames, writes and (optionally) fsyncs one record, rotating the
// segment when it outgrows the threshold. The frame — header and payload —
// is built in the WAL's reused scratch and handed to the file in one
// Write. Callers hold w.mu.
func (w *WAL) write(o *op) error {
	if w.closed {
		return errors.New("store: wal is closed")
	}
	buf := appendOp(append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0), o)
	n := len(buf) - frameHeaderLen
	if n > maxRecord {
		return fmt.Errorf("store: record of %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[frameHeaderLen:]))
	_, err := w.seg.Write(buf)
	if cap(buf) <= keepFrameBuf {
		w.buf = buf
	} else {
		w.buf = nil
	}
	if err != nil {
		return err
	}
	w.segSize += int64(len(buf))
	if w.sync {
		if err := w.seg.Sync(); err != nil {
			return err
		}
	}
	if w.segSize >= w.maxSeg {
		full, fullSize := w.segID, w.segSize
		if err := w.seg.Close(); err != nil {
			return err
		}
		if err := w.openSegment(w.segID + 1); err != nil {
			return err
		}
		if w.log != nil {
			w.log.Info("wal segment rotated", "dir", w.dir, "segment", full,
				"bytes", fullSize, "next", w.segID)
		}
	}
	return nil
}

// Append implements Store.
func (w *WAL) Append(queue string, n message.Notification, at time.Time) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	o := op{kind: opAppend, queue: queue, seq: w.queue(queue).next, at: at, note: n}
	if err := w.write(&o); err != nil {
		return 0, err
	}
	w.apply(o)
	return o.seq, nil
}

// ReplayFrom implements Store.
func (w *WAL) ReplayFrom(queue string, after uint64) ([]Record, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.replayFrom(queue, after), nil
}

// Ack implements Store.
func (w *WAL) Ack(queue string, upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.queues[queue]; !ok {
		return nil
	}
	o := op{kind: opAck, queue: queue, upTo: upTo}
	if err := w.write(&o); err != nil {
		return err
	}
	w.apply(o)
	return nil
}

// Snapshot implements Store.
func (w *WAL) Snapshot(key string, data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	o := op{kind: opSnapshot, key: key, data: data}
	if err := w.write(&o); err != nil {
		return err
	}
	w.apply(o)
	return nil
}

// LoadSnapshot implements Store.
func (w *WAL) LoadSnapshot(key string) ([]byte, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.loadSnapshot(key)
}

// Snapshots implements Store.
func (w *WAL) Snapshots(prefix string) map[string][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.snapshots(prefix)
}

// Compact implements Store: the live state is rewritten into a fresh
// segment (fsynced before it becomes current) and every older segment is
// deleted.
func (w *WAL) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: wal is closed")
	}
	oldID := w.segID
	if err := w.seg.Close(); err != nil {
		return err
	}
	if err := w.openSegment(oldID + 1); err != nil {
		return err
	}
	if err := w.eachLive(w.write); err != nil {
		return err
	}
	if err := w.seg.Sync(); err != nil {
		return err
	}
	// The rewrite is durable; the old segments are garbage.
	ids, err := w.segments()
	if err != nil {
		return err
	}
	removed := 0
	for _, id := range ids {
		if id <= oldID {
			if err := os.Remove(filepath.Join(w.dir, segName(id))); err != nil {
				return err
			}
			removed++
		}
	}
	if w.log != nil {
		w.log.Info("wal compacted", "dir", w.dir, "segments_removed", removed,
			"segment", w.segID, "bytes", w.segSize)
	}
	return nil
}

// Sync implements Store.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.seg == nil {
		return nil
	}
	return w.seg.Sync()
}

// Close implements Store.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.seg == nil {
		return nil
	}
	if err := w.seg.Sync(); err != nil {
		_ = w.seg.Close()
		return err
	}
	return w.seg.Close()
}

// State reports a queue's bookkeeping (tests, stats).
func (w *WAL) State(queue string) QueueState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.queueState(queue)
}

// SegmentCount reports how many segment files exist (compaction tests).
func (w *WAL) SegmentCount() (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids, err := w.segments()
	if err != nil {
		return 0, err
	}
	return len(ids), nil
}

// WALStats summarizes the log's on-disk footprint (the telemetry
// registry's WAL collectors scrape it).
type WALStats struct {
	// Segments is the number of segment files.
	Segments int
	// Bytes is their total size.
	Bytes int64
}

// Stats reports the log's segment count and total on-disk bytes.
func (w *WAL) Stats() (WALStats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids, err := w.segments()
	if err != nil {
		return WALStats{}, err
	}
	s := WALStats{Segments: len(ids)}
	for _, id := range ids {
		st, err := os.Stat(filepath.Join(w.dir, segName(id)))
		if err != nil {
			continue // racing a compaction's deletion; skip
		}
		s.Bytes += st.Size()
	}
	return s, nil
}
