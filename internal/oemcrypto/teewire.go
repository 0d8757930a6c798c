package oemcrypto

import (
	"encoding/binary"
	"errors"

	"repro/internal/mp4"
)

// The TEE command frame: every _oecc call crosses the world boundary as
// one request frame and comes back as one response frame. Integers are
// big-endian; "bytes" is a u32 length followed by that many bytes, and a
// zero length decodes as nil.
//
// Request:
//
//	u32      Session
//	bytes    Context, Message, MAC, WrappedKey, IV
//	[8]byte  IV8
//	[16]byte KID
//	bytes    Scheme
//	u32      subsample count, then per entry: u16 ClearBytes, u32 ProtectedBytes
//	bytes    Data
//	u32      key count, then per key: [16]byte KID, [16]byte IV, bytes Payload,
//	         u32 DurationSeconds
//
// Response:
//
//	u32      Session
//	bytes    Out, StableID
//	u32      SystemID
//	u8       Bool (0 or 1)
//	bytes    Err
//
// Decoding is strict: a truncated frame, trailing bytes or a Bool byte
// other than 0/1 is an error, and every length and count is checked
// against the bytes left before anything is allocated. Decoded byte
// fields alias the frame (capacity-capped, so an append never reaches the
// next field); each side builds a fresh frame per call and never reuses it.

// Frame decoding errors.
var (
	errFrameTruncated = errors.New("oemcrypto: tee frame truncated")
	errFrameTrailing  = errors.New("oemcrypto: tee frame has trailing bytes")
	errFrameBool      = errors.New("oemcrypto: tee frame bool is not 0 or 1")
)

// Smallest wire form of one count-prefixed element.
const (
	subsampleWireSize = 2 + 4
	keyWireMinSize    = 16 + 16 + 4 + 4
)

func (q *teeRequest) marshal() []byte {
	n := 4 + 4*5 + len(q.Context) + len(q.Message) + len(q.MAC) + len(q.WrappedKey) + len(q.IV) +
		8 + 16 + 4 + len(q.Scheme) + 4 + subsampleWireSize*len(q.Subsamples) + 4 + len(q.Data) + 4
	for _, k := range q.Keys {
		n += keyWireMinSize + len(k.Payload)
	}
	b := make([]byte, 0, n)
	b = binary.BigEndian.AppendUint32(b, uint32(q.Session))
	b = appendField(b, q.Context)
	b = appendField(b, q.Message)
	b = appendField(b, q.MAC)
	b = appendField(b, q.WrappedKey)
	b = appendField(b, q.IV)
	b = append(b, q.IV8[:]...)
	b = append(b, q.KID[:]...)
	b = appendField(b, []byte(q.Scheme))
	b = binary.BigEndian.AppendUint32(b, uint32(len(q.Subsamples)))
	for _, s := range q.Subsamples {
		b = binary.BigEndian.AppendUint16(b, s.ClearBytes)
		b = binary.BigEndian.AppendUint32(b, s.ProtectedBytes)
	}
	b = appendField(b, q.Data)
	b = binary.BigEndian.AppendUint32(b, uint32(len(q.Keys)))
	for _, k := range q.Keys {
		b = append(b, k.KID[:]...)
		b = append(b, k.IV[:]...)
		b = appendField(b, k.Payload)
		b = binary.BigEndian.AppendUint32(b, k.DurationSeconds)
	}
	return b
}

func (q *teeRequest) unmarshal(frame []byte) error {
	*q = teeRequest{}
	r := frameReader{b: frame}
	q.Session = SessionID(r.u32())
	q.Context = r.field()
	q.Message = r.field()
	q.MAC = r.field()
	q.WrappedKey = r.field()
	q.IV = r.field()
	copy(q.IV8[:], r.take(len(q.IV8)))
	copy(q.KID[:], r.take(len(q.KID)))
	q.Scheme = string(r.field())
	if n := r.count(subsampleWireSize); n > 0 {
		q.Subsamples = make([]mp4.SubsampleEntry, n)
		for i := range q.Subsamples {
			q.Subsamples[i].ClearBytes = r.u16()
			q.Subsamples[i].ProtectedBytes = r.u32()
		}
	}
	q.Data = r.field()
	if n := r.count(keyWireMinSize); n > 0 {
		q.Keys = make([]EncryptedKey, n)
		for i := range q.Keys {
			k := &q.Keys[i]
			copy(k.KID[:], r.take(len(k.KID)))
			copy(k.IV[:], r.take(len(k.IV)))
			k.Payload = r.field()
			k.DurationSeconds = r.u32()
		}
	}
	return r.done()
}

func (p *teeResponse) marshal() []byte {
	b := make([]byte, 0, 4+4+len(p.Out)+4+len(p.StableID)+4+1+4+len(p.Err))
	b = binary.BigEndian.AppendUint32(b, uint32(p.Session))
	b = appendField(b, p.Out)
	b = appendField(b, []byte(p.StableID))
	b = binary.BigEndian.AppendUint32(b, p.SystemID)
	if p.Bool {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return appendField(b, []byte(p.Err))
}

func (p *teeResponse) unmarshal(frame []byte) error {
	*p = teeResponse{}
	r := frameReader{b: frame}
	p.Session = SessionID(r.u32())
	p.Out = r.field()
	p.StableID = string(r.field())
	p.SystemID = r.u32()
	if flag := r.take(1); flag != nil {
		switch flag[0] {
		case 0:
		case 1:
			p.Bool = true
		default:
			return errFrameBool
		}
	}
	p.Err = string(r.field())
	return r.done()
}

func appendField(b, field []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(field)))
	return append(b, field...)
}

// frameReader walks a frame; the first failure sticks and turns every
// later read into a zero value, so decoders check once, at done.
type frameReader struct {
	b   []byte
	err error
}

// take returns the next n bytes, or nil once the frame is exhausted.
func (r *frameReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.err, r.b = errFrameTruncated, nil
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *frameReader) u16() uint16 {
	if p := r.take(2); p != nil {
		return binary.BigEndian.Uint16(p)
	}
	return 0
}

func (r *frameReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

// field reads one length-prefixed byte field; zero length is nil.
func (r *frameReader) field() []byte {
	n := r.u32()
	if n == 0 {
		return nil
	}
	if uint64(n) > uint64(len(r.b)) {
		r.err, r.b = errFrameTruncated, nil
		return nil
	}
	return r.take(int(n))
}

// count reads an element count and checks that the bytes left can hold
// that many elements of at least minSize bytes each.
func (r *frameReader) count(minSize int) int {
	n := r.u32()
	if uint64(n)*uint64(minSize) > uint64(len(r.b)) {
		r.err, r.b = errFrameTruncated, nil
		return 0
	}
	return int(n)
}

func (r *frameReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return errFrameTrailing
	}
	return nil
}
