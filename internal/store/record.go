package store

import (
	"encoding/binary"
	"fmt"

	"rebeca/internal/codec"
)

// WAL record payload, built from internal/codec's encodings (strings are
// uvarint-length prefixed, times are a presence byte plus Unix
// nanoseconds, a notification is codec.AppendNotification's
// self-contained form — hop trail included):
//
//	record     := kind:byte body
//	append     := queue:string seq:uvarint at:time note:notification
//	ack        := queue:string upTo:uvarint
//	snapshot   := key:string present:byte [data:bytes]   (present=0 deletes)
//	queue-meta := queue:string next:uvarint upTo:uvarint
//
// The encoding is positional and reflection-free: appending allocates
// nothing, decoding allocates only what the decoded op keeps.

// appendOp appends the record payload of o.
func appendOp(b []byte, o *op) []byte {
	b = append(b, byte(o.kind))
	switch o.kind {
	case opAppend:
		b = codec.AppendString(b, o.queue)
		b = binary.AppendUvarint(b, o.seq)
		b = codec.AppendTime(b, o.at)
		b = codec.AppendNotification(b, &o.note)
	case opAck:
		b = codec.AppendString(b, o.queue)
		b = binary.AppendUvarint(b, o.upTo)
	case opSnapshot:
		b = codec.AppendString(b, o.key)
		if o.data == nil {
			b = append(b, 0)
		} else {
			b = codec.AppendBytes(append(b, 1), o.data)
		}
	case opQueueMeta:
		b = codec.AppendString(b, o.queue)
		b = binary.AppendUvarint(b, o.next)
		b = binary.AppendUvarint(b, o.upTo)
	}
	return b
}

// decodeOp decodes one record payload. Malformed input — truncated
// fields, unknown kinds or tags, trailing bytes — returns an error; it
// never panics, and the decoded op never aliases payload.
func decodeOp(payload []byte) (op, error) {
	r := codec.NewReader(payload)
	o := op{kind: opKind(r.Byte())}
	switch o.kind {
	case opAppend:
		o.queue = r.Str()
		o.seq = r.Uvarint()
		o.at = r.Time()
		o.note = r.Notification()
	case opAck:
		o.queue = r.Str()
		o.upTo = r.Uvarint()
	case opSnapshot:
		o.key = r.Str()
		switch present := r.Byte(); present {
		case 0:
		case 1:
			o.data = r.Bytes()
		default:
			return op{}, fmt.Errorf("store: bad snapshot presence byte %d", present)
		}
	case opQueueMeta:
		o.queue = r.Str()
		o.next = r.Uvarint()
		o.upTo = r.Uvarint()
	default:
		if err := r.Err(); err != nil {
			return op{}, err
		}
		return op{}, fmt.Errorf("store: unknown record kind %d", o.kind)
	}
	if err := r.Done(); err != nil {
		return op{}, err
	}
	return o, nil
}
