// Package codec implements the binary wire protocol of the live transport:
// a hand-rolled, length-prefixed encoding of proto.Message with explicit
// encode/decode for every message kind, attribute value and filter
// constraint. It replaces the reflective per-envelope gob encoding on the
// publish hot path — the paper's broker network pays serialization on every
// hop, so the frame format is designed for cheap, allocation-light encoding
// (pooled scratch buffers, varint integers, no type descriptors on the
// wire).
//
// # Frame format (version 1)
//
//	frame   := length:uint32le payload
//	payload := kind:uvarint flags:byte
//	           from origin dest client:string
//	           [note:notification]          (flags&1)
//	           notes:list<notification>
//	           subIDs:list<string>
//	           credits:varint
//	           [sub:subscription]           (flags&2)
//	           subs:list<subscription>
//	           advs:list<subscription>
//	           watermarks:list<string uvarint>
//	           flushID:uvarint epoch:uvarint hops:varint
//	           [path:list<string uint64le>] (flags&16, version 2)
//
// flags: 1 = Note present, 2 = Sub present, 4 = Stale, 8 = Fresh,
// 16 = the note carries a telemetry hop trail (version 2). Version 1
// decoders reject unknown flag bits, so a version-2 encoder only sets the
// traced bit on links whose handshake negotiated version ≥ 2 — the trail
// is stripped for older peers.
// Strings are uvarint-length prefixed; lists are uvarint-count prefixed;
// varint is the zig-zag signed encoding. A notification is
// publisher+seq+timestamp+attribute list; a value is a one-byte kind tag
// plus its payload; a filter travels as its canonical constraint list.
//
// Decoding is defensive end to end: every read is bounds-checked, list
// counts are validated against the remaining payload before any
// allocation, and a torn or truncated frame yields an error — never a
// panic — so a malformed peer cannot take a broker down.
//
// The same notification, subscription and primitive encodings back the
// store's records (WAL frames, session snapshots): AppendNotification,
// AppendSubscription and friends write them, and Reader reads them back
// with the same bounds checks.
//
// The codec is versioned by the link handshake (see internal/wire): the
// hello frame carries Magic and Version, and peers agree on the minimum.
// This codec is the only wire encoding — the gob fallback of early
// releases is gone, and a peer that does not open with Magic is refused
// with a diagnosis instead of negotiated down.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// Version is the binary protocol version negotiated by the link handshake.
// Peers agree on min(theirs, ours). Version 2 added the traced flags bit
// carrying a notification's hop trail.
const Version byte = 2

// Magic opens a binary hello frame; it lets an accepting side distinguish
// a binary peer from a legacy gob peer on the first bytes of the stream.
var Magic = [4]byte{'R', 'B', 'C', 'W'}

// MaxFrame bounds a frame payload. A decoder rejects larger length
// prefixes outright instead of allocating attacker-controlled buffers;
// an encoder refuses to emit one (the transport escalates that to a link
// failure — see wire.Conn.Send — rather than dropping it silently). The
// bound leaves generous headroom over the largest legitimate frame, a
// KSyncInstall replaying a whole routing table.
const MaxFrame = 64 << 20

// value kind tags on the wire.
const (
	tagInvalid byte = iota
	tagString
	tagInt
	tagFloat
	tagTrue
	tagFalse
)

// message flag bits.
const (
	flagNote byte = 1 << iota
	flagSub
	flagStale
	flagFresh
	// flagTraced marks a Note carrying a telemetry hop trail (version 2).
	// Version 1 peers reject unknown bits, so encoders only set it on
	// links negotiated at version ≥ 2.
	flagTraced
)

// framePool recycles encode scratch across connections: a broker encodes
// on many links concurrently, and steady-state publishing should not
// allocate per frame.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// Encoder writes length-prefixed binary frames to w. Not safe for
// concurrent use; callers serialize (the wire transport holds a per-conn
// send lock).
type Encoder struct {
	w       io.Writer
	ver     byte
	onFrame func(bytes int)
}

// NewEncoder returns an encoder writing frames to w at the current
// protocol version. Pair it with a buffered writer: the encoder issues
// exactly one Write per message.
func NewEncoder(w io.Writer) *Encoder { return NewEncoderVersion(w, Version) }

// NewEncoderVersion returns an encoder emitting frames a peer negotiated
// at ver can decode: fields and flag bits introduced in later versions are
// stripped (a version-1 link never sees the traced bit). ver is clamped to
// [1, Version].
func NewEncoderVersion(w io.Writer, ver byte) *Encoder {
	if ver < 1 {
		ver = 1
	}
	if ver > Version {
		ver = Version
	}
	return &Encoder{w: w, ver: ver}
}

// OnFrame registers an observer of encoded frame sizes (payload + length
// prefix, in bytes), called after every successful Encode — the telemetry
// feed for frame-size histograms. Set before the encoder is shared; not
// synchronized with Encode.
func (e *Encoder) OnFrame(fn func(bytes int)) { e.onFrame = fn }

// Encode writes one message as a single frame.
func (e *Encoder) Encode(m proto.Message) error {
	if e.ver < 2 && m.Note != nil && len(m.Note.Path) > 0 {
		// The peer's decoder predates the traced bit: forward the
		// notification without its hop trail rather than poisoning the
		// link with a flag the peer rejects.
		n := *m.Note
		n.Path = nil
		m.Note = &n
	}
	bp := framePool.Get().(*[]byte)
	buf := append((*bp)[:0], 0, 0, 0, 0)
	buf = AppendMessage(buf, &m)
	n := len(buf) - 4
	if n > MaxFrame {
		*bp = buf
		framePool.Put(bp)
		return fmt.Errorf("codec: frame of %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(buf, uint32(n))
	_, err := e.w.Write(buf)
	total := len(buf)
	*bp = buf
	framePool.Put(bp)
	if err == nil && e.onFrame != nil {
		e.onFrame(total)
	}
	return err
}

// Decoder reads length-prefixed binary frames from r. The payload buffer
// is reused across Decode calls; decoded messages never alias it.
type Decoder struct {
	r   io.Reader
	hdr [4]byte
	buf []byte
	// small counts consecutive frames fitting shrinkCap; once a long run
	// shows the conn is back to steady-state traffic, an oversized buffer
	// (grown by one big routing replay, up to MaxFrame) is released
	// instead of staying pinned for the conn's lifetime.
	small int
}

// Decoder buffer shrink policy: drop an over-grown payload buffer after
// shrinkAfter consecutive frames at or below shrinkCap.
const (
	shrinkCap   = 64 << 10
	shrinkAfter = 256
)

// NewDecoder returns a decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Decode reads the next frame into m. io.EOF is returned only at a clean
// frame boundary; a frame torn mid-payload yields io.ErrUnexpectedEOF.
func (d *Decoder) Decode(m *proto.Message) error {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	// Bounds-check in uint32 space before converting: on 32-bit platforms
	// a length >= 2^31 would wrap negative as int and slip past the guard
	// into a panicking slice expression.
	n32 := binary.LittleEndian.Uint32(d.hdr[:])
	if n32 > MaxFrame {
		return fmt.Errorf("codec: frame of %d bytes exceeds limit", n32)
	}
	n := int(n32)
	if n > shrinkCap {
		d.small = 0
	} else if cap(d.buf) > shrinkCap {
		if d.small++; d.small >= shrinkAfter {
			d.buf = nil
			d.small = 0
		}
	}
	if cap(d.buf) < n {
		c := n
		if c < 1024 {
			c = 1024
		}
		d.buf = make([]byte, c)
	}
	buf := d.buf[:n]
	if _, err := io.ReadFull(d.r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	msg, err := DecodeMessage(buf)
	if err != nil {
		return err
	}
	*m = msg
	return nil
}

// --- encoding ----------------------------------------------------------

// AppendMessage appends the payload encoding of m (no length prefix).
func AppendMessage(b []byte, m *proto.Message) []byte {
	b = binary.AppendUvarint(b, uint64(m.Kind))
	var flags byte
	if m.Note != nil {
		flags |= flagNote
		if len(m.Note.Path) > 0 {
			flags |= flagTraced
		}
	}
	if m.Sub != nil {
		flags |= flagSub
	}
	if m.Stale {
		flags |= flagStale
	}
	if m.Fresh {
		flags |= flagFresh
	}
	b = append(b, flags)
	b = appendString(b, string(m.From))
	b = appendString(b, string(m.Origin))
	b = appendString(b, string(m.Dest))
	b = appendString(b, string(m.Client))
	if m.Note != nil {
		b = appendNotification(b, m.Note)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Notes)))
	for i := range m.Notes {
		b = appendNotification(b, &m.Notes[i])
	}
	b = binary.AppendUvarint(b, uint64(len(m.SubIDs)))
	for _, id := range m.SubIDs {
		b = appendString(b, string(id))
	}
	b = binary.AppendVarint(b, int64(m.Credits))
	if m.Sub != nil {
		b = appendSubscription(b, *m.Sub)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Subs)))
	for _, s := range m.Subs {
		b = appendSubscription(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Advs)))
	for _, s := range m.Advs {
		b = appendSubscription(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Watermarks)))
	for node, seq := range m.Watermarks {
		b = appendString(b, string(node))
		b = binary.AppendUvarint(b, seq)
	}
	b = binary.AppendUvarint(b, m.FlushID)
	b = binary.AppendUvarint(b, m.Epoch)
	b = binary.AppendVarint(b, int64(m.Hops))
	if flags&flagTraced != 0 {
		b = appendPath(b, m.Note.Path)
	}
	return b
}

func appendPath(b []byte, path []message.HopStamp) []byte {
	b = binary.AppendUvarint(b, uint64(len(path)))
	for _, h := range path {
		b = appendString(b, string(h.Broker))
		b = binary.LittleEndian.AppendUint64(b, uint64(h.At.UnixNano()))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendString appends s length-prefixed; Reader.Str and Reader.Bytes
// read it back.
func AppendString(b []byte, s string) []byte { return appendString(b, s) }

// AppendBytes appends p length-prefixed, the same encoding as
// AppendString.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendTime appends t as a presence byte plus, for a non-zero t, its
// Unix nanoseconds; Reader.Time reads it back (Equal to t, in the local
// zone).
func AppendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	return binary.LittleEndian.AppendUint64(b, uint64(t.UnixNano()))
}

func appendValue(b []byte, v message.Value) []byte {
	switch v.Kind() {
	case message.KindString:
		b = append(b, tagString)
		b = appendString(b, v.Str())
	case message.KindInt:
		b = append(b, tagInt)
		b = binary.AppendVarint(b, v.IntVal())
	case message.KindFloat:
		b = append(b, tagFloat)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.FloatVal()))
	case message.KindBool:
		if v.BoolVal() {
			b = append(b, tagTrue)
		} else {
			b = append(b, tagFalse)
		}
	default:
		b = append(b, tagInvalid)
	}
	return b
}

func appendNotification(b []byte, n *message.Notification) []byte {
	b = appendString(b, string(n.ID.Publisher))
	b = binary.AppendUvarint(b, n.ID.Seq)
	b = AppendTime(b, n.Published)
	b = binary.AppendUvarint(b, uint64(len(n.Attrs)))
	for name, v := range n.Attrs {
		b = appendString(b, name)
		b = appendValue(b, v)
	}
	return b
}

// AppendNotification appends a self-contained encoding of n for records
// outside a message frame: a flags byte (the message flags' traced bit
// when n carries a hop trail), the notification as it travels inside a
// message, then the trail if traced. Reader.Notification reads it back.
func AppendNotification(b []byte, n *message.Notification) []byte {
	if len(n.Path) == 0 {
		return appendNotification(append(b, 0), n)
	}
	b = appendNotification(append(b, flagTraced), n)
	return appendPath(b, n.Path)
}

// AppendSubscription appends s as it travels inside a message;
// Reader.Subscription reads it back.
func AppendSubscription(b []byte, s proto.Subscription) []byte {
	return appendSubscription(b, s)
}

func appendConstraint(b []byte, c filter.Constraint) []byte {
	b = appendString(b, c.Attr)
	b = binary.AppendUvarint(b, uint64(c.Op))
	b = appendValue(b, c.Val)
	b = binary.AppendUvarint(b, uint64(len(c.Set)))
	for _, v := range c.Set {
		b = appendValue(b, v)
	}
	return b
}

func appendFilter(b []byte, f filter.Filter) []byte {
	cs := f.Constraints()
	b = binary.AppendUvarint(b, uint64(len(cs)))
	for _, c := range cs {
		b = appendConstraint(b, c)
	}
	return b
}

func appendSubscription(b []byte, s proto.Subscription) []byte {
	b = appendString(b, string(s.ID))
	return appendFilter(b, s.Filter)
}

// --- decoding ----------------------------------------------------------

var errTruncated = errors.New("codec: truncated frame")

// Reader is the codec's defensive decoder: it tracks a decode position
// with sticky error state so every field accessor stays a one-liner at the
// call site and no read can run past the payload. After the first failure
// every accessor returns a zero value; check Err (or Done) once at the
// end. Decoded strings, byte slices and notifications never alias the
// input, so the caller may reuse it.
//
// Besides message frames, Reader decodes the other binary records built
// from the codec's encodings (the store's WAL records and session
// snapshots).
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first decode failure, or an error if input remains
// unread: a record decoder calls it last so trailing garbage is rejected.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.data) {
		return fmt.Errorf("codec: %d trailing bytes", len(r.data)-r.off)
	}
	return r.err
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) remaining() int { return len(r.data) - r.off }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail(errTruncated)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	return string(r.raw())
}

// Bytes reads a length-prefixed byte string into a fresh slice. An empty
// byte string decodes as an empty, non-nil slice.
func (r *Reader) Bytes() []byte {
	b := r.raw()
	if r.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

// raw reads a length-prefixed byte string, aliasing the input.
func (r *Reader) raw() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail(errTruncated)
		return nil
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Time reads a timestamp written by AppendTime.
func (r *Reader) Time() time.Time {
	switch r.Byte() {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(0, int64(r.uint64()))
	default:
		r.fail(errors.New("codec: bad time tag"))
		return time.Time{}
	}
}

// Count reads a list length and validates it against the remaining bytes
// (each element needs at least minBytes), so a corrupt count cannot drive
// a huge allocation.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()/minBytes) {
		r.fail(fmt.Errorf("codec: list of %d elements exceeds frame", n))
		return 0
	}
	return int(n)
}

func (r *Reader) value() message.Value {
	switch tag := r.Byte(); tag {
	case tagString:
		return message.String(r.Str())
	case tagInt:
		return message.Int(r.varint())
	case tagFloat:
		return message.Float(math.Float64frombits(r.uint64()))
	case tagTrue:
		return message.Bool(true)
	case tagFalse:
		return message.Bool(false)
	case tagInvalid:
		return message.Value{}
	default:
		r.fail(fmt.Errorf("codec: unknown value tag %d", tag))
		return message.Value{}
	}
}

func (r *Reader) notification() message.Notification {
	var n message.Notification
	n.ID.Publisher = message.NodeID(r.Str())
	n.ID.Seq = r.Uvarint()
	n.Published = r.Time()
	cnt := r.Count(2)
	if cnt > 0 {
		n.Attrs = make(map[string]message.Value, cnt)
		for i := 0; i < cnt && r.err == nil; i++ {
			name := r.Str()
			n.Attrs[name] = r.value()
		}
	}
	return n
}

// path reads a hop trail; nil on failure or for an empty trail.
func (r *Reader) path() []message.HopStamp {
	// Each hop is at least a length byte plus its 8-byte timestamp.
	cnt := r.Count(9)
	if cnt == 0 {
		return nil
	}
	path := make([]message.HopStamp, 0, cnt)
	for i := 0; i < cnt && r.err == nil; i++ {
		broker := message.NodeID(r.Str())
		path = append(path, message.HopStamp{Broker: broker, At: time.Unix(0, int64(r.uint64()))})
	}
	if r.err != nil {
		return nil
	}
	return path
}

// Notification reads a notification written by AppendNotification.
func (r *Reader) Notification() message.Notification {
	flags := r.Byte()
	if flags&^flagTraced != 0 {
		r.fail(fmt.Errorf("codec: unknown notification flag bits %#x", flags))
	}
	n := r.notification()
	if flags&flagTraced != 0 {
		n.Path = r.path()
	}
	return n
}

func (r *Reader) constraint() filter.Constraint {
	var c filter.Constraint
	c.Attr = r.Str()
	c.Op = filter.Op(r.Uvarint())
	c.Val = r.value()
	cnt := r.Count(1)
	if cnt > 0 {
		c.Set = make([]message.Value, 0, cnt)
		for i := 0; i < cnt && r.err == nil; i++ {
			c.Set = append(c.Set, r.value())
		}
	}
	return c
}

func (r *Reader) filter() filter.Filter {
	cnt := r.Count(2)
	if cnt == 0 {
		return filter.All()
	}
	cs := make([]filter.Constraint, 0, cnt)
	for i := 0; i < cnt && r.err == nil; i++ {
		cs = append(cs, r.constraint())
	}
	if r.err != nil {
		return filter.Filter{}
	}
	return filter.New(cs...)
}

// Subscription reads a subscription written by AppendSubscription.
func (r *Reader) Subscription() proto.Subscription {
	var s proto.Subscription
	s.ID = message.SubID(r.Str())
	s.Filter = r.filter()
	return s
}

// DecodeMessage decodes one frame payload (no length prefix). Malformed
// input — truncated fields, inflated list counts, unknown tags, trailing
// garbage — returns an error; DecodeMessage never panics.
func DecodeMessage(data []byte) (proto.Message, error) {
	r := Reader{data: data}
	var m proto.Message
	kind := r.Uvarint()
	if r.err == nil && (kind == uint64(proto.KInvalid) || kind >= uint64(proto.NumKinds)) {
		return proto.Message{}, fmt.Errorf("codec: unknown message kind %d", kind)
	}
	m.Kind = proto.Kind(kind)
	flags := r.Byte()
	if r.err == nil && flags&^(flagNote|flagSub|flagStale|flagFresh|flagTraced) != 0 {
		return proto.Message{}, fmt.Errorf("codec: unknown flag bits %#x", flags)
	}
	if r.err == nil && flags&flagTraced != 0 && flags&flagNote == 0 {
		return proto.Message{}, errors.New("codec: traced flag without a note")
	}
	m.From = message.NodeID(r.Str())
	m.Origin = message.NodeID(r.Str())
	m.Dest = message.NodeID(r.Str())
	m.Client = message.NodeID(r.Str())
	if flags&flagNote != 0 {
		n := r.notification()
		m.Note = &n
	}
	if cnt := r.Count(3); cnt > 0 {
		m.Notes = make([]message.Notification, 0, cnt)
		for i := 0; i < cnt && r.err == nil; i++ {
			m.Notes = append(m.Notes, r.notification())
		}
	}
	if cnt := r.Count(1); cnt > 0 {
		m.SubIDs = make([]message.SubID, 0, cnt)
		for i := 0; i < cnt && r.err == nil; i++ {
			m.SubIDs = append(m.SubIDs, message.SubID(r.Str()))
		}
	}
	m.Credits = int(r.varint())
	if flags&flagSub != 0 {
		s := r.Subscription()
		m.Sub = &s
	}
	if cnt := r.Count(2); cnt > 0 {
		m.Subs = make([]proto.Subscription, 0, cnt)
		for i := 0; i < cnt && r.err == nil; i++ {
			m.Subs = append(m.Subs, r.Subscription())
		}
	}
	if cnt := r.Count(2); cnt > 0 {
		m.Advs = make([]proto.Subscription, 0, cnt)
		for i := 0; i < cnt && r.err == nil; i++ {
			m.Advs = append(m.Advs, r.Subscription())
		}
	}
	if cnt := r.Count(2); cnt > 0 {
		m.Watermarks = make(map[message.NodeID]uint64, cnt)
		for i := 0; i < cnt && r.err == nil; i++ {
			node := message.NodeID(r.Str())
			m.Watermarks[node] = r.Uvarint()
		}
	}
	m.FlushID = r.Uvarint()
	m.Epoch = r.Uvarint()
	m.Hops = int(r.varint())
	if flags&flagTraced != 0 {
		m.Note.Path = r.path()
	}
	m.Stale = flags&flagStale != 0
	m.Fresh = flags&flagFresh != 0
	if err := r.Done(); err != nil {
		return proto.Message{}, err
	}
	return m, nil
}
