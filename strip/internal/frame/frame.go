// Package frame is the one record envelope of the strip logs — the
// replication stream, the write-ahead log's segments and checkpoint
// snapshots — and of the election wire and ledger: a frame is
//
//	len:u32 | payload | crc32(payload)
//
// big-endian, IEEE CRC, with 0 < len <= a cap each user passes in
// (MaxRecord, 8 MiB, for the strip logs; strip/elect 64 KiB). The
// package writes and checks frames and supplies the bounds-checked
// payload cursor every payload layout decodes with. The layouts the
// strip logs share live here too (record.go): one block of kind
// bytes, the key/value pair list and the batch record, so a committed
// batch has the same bytes in the stream and in the WAL. The layouts
// only one protocol uses belong to that protocol.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// overhead is the bytes a frame adds around its payload: the 4-byte
// length prefix and the 4-byte CRC32 trailer.
const overhead = 8

// Codec errors. ReadBuf and the Decoder return errors — never panic
// and never a partial message — on any malformed input.
var (
	// ErrTooLarge reports an empty payload or one beyond the cap (a
	// length prefix on read, a payload or string on write).
	ErrTooLarge = errors.New("frame: exceeds size limit")
	// ErrChecksum reports a CRC32 mismatch: the frame was corrupted in
	// flight or at rest.
	ErrChecksum = errors.New("frame: checksum mismatch")
	// ErrTruncated reports a frame cut short of its declared length.
	ErrTruncated = errors.New("frame: truncated")
	// ErrMalformed reports a payload that does not decode as any
	// message.
	ErrMalformed = errors.New("frame: malformed payload")
)

// Append appends payload to dst as one frame of at most max payload
// bytes and returns the extended slice. Fan-out paths pass a reused
// scratch buffer (scratch[:0]) so steady-state framing allocates
// nothing once the buffer reaches its high-water mark.
func Append(dst, payload []byte, max int) ([]byte, error) {
	dst, start := Begin(dst)
	return End(append(dst, payload...), start, max)
}

// Begin starts a frame at the end of dst for a payload the caller
// encodes in place: it reserves the length prefix and returns the
// frame's start for End.
func Begin(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0), len(dst)
}

// End closes the frame Begin started at start, whose payload is
// everything after the prefix: it patches the length and appends the
// CRC. An empty payload or one over max bytes is ErrTooLarge, and dst
// comes back cut to start.
func End(dst []byte, start, max int) ([]byte, error) {
	payload := dst[start+4:]
	if len(payload) == 0 || len(payload) > max {
		return dst[:start], ErrTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload)), nil
}

// Write writes one frame assembled into a single buffer, so it reaches
// w in one Write call. It allocates the buffer per call.
func Write(w io.Writer, payload []byte, max int) error {
	buf, err := Append(make([]byte, 0, len(payload)+overhead), payload, max)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadBuf reads one frame of at most max payload bytes into buf (grown
// when too small) and returns the verified payload aliasing buf's
// storage plus the possibly grown buffer to pass to the next call. The
// payload is valid only until that next call; a caller that keeps it
// must copy (the protocols' decoders copy every string out). The
// length prefix lands in buf too — a local header array would escape
// through io.ReadFull's interface argument — so once buf has reached
// the largest frame's size a call allocates nothing.
//
// A clean EOF before the first byte returns io.EOF. Any other short
// read returns ErrTruncated wrapping its cause: io.ErrUnexpectedEOF
// when the stream ended inside the frame, the transport's error
// otherwise.
func ReadBuf(r io.Reader, buf []byte, max int) (payload, newBuf []byte, err error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		if errors.Is(err, io.EOF) && err != io.ErrUnexpectedEOF {
			return nil, buf, io.EOF
		}
		return nil, buf, truncated(err)
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n == 0 || n > uint32(max) {
		return nil, buf, ErrTooLarge
	}
	need := int(n) + 4
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	body := buf[:need]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, buf, truncated(err)
	}
	payload = body[:n]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(body[n:]) {
		return nil, buf, ErrChecksum
	}
	return payload, buf, nil
}

// truncated wraps a short read in ErrTruncated, keeping its cause: an
// EOF inside a frame is never clean, so it becomes io.ErrUnexpectedEOF.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %w", ErrTruncated, err)
}

// Corrupt reports whether a read or decode error condemns the bytes
// received rather than the link: a failed checksum, an impossible
// length, a stream that ended inside a frame, or a payload that does
// not decode. A clean EOF between frames, an expired deadline or a
// transport error is not.
func Corrupt(err error) bool {
	return errors.Is(err, ErrChecksum) || errors.Is(err, ErrTooLarge) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrMalformed)
}

// Decoder is a bounds-checked cursor over a payload. The first failed
// read latches an ErrMalformed error and every later read returns zero
// values, so decoding malformed input can never panic or over-read;
// Finish reports the latched error or leftover bytes.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a cursor at the start of payload.
func NewDecoder(payload []byte) Decoder { return Decoder{b: payload} }

// Err returns the latched error, nil while every read has succeeded.
func (d *Decoder) Err() error { return d.err }

// Failf latches an ErrMalformed error with the formatted detail, unless
// an earlier one is latched already.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// Finish returns the latched error, or an error when bytes remain: a
// payload must be consumed exactly.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.Failf("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.Failf("need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// U8 reads one byte.
func (d *Decoder) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a one-byte bool, rejecting any byte but 0 and 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Failf("bad bool byte %d", v)
	}
	return v == 1
}

// Str reads a uint16-length-prefixed string. It copies: the payload
// may alias a buffer ReadBuf reuses.
func (d *Decoder) Str() string {
	return string(d.take(int(d.U16())))
}

// Count16 reads a uint16 element count, rejecting one whose elements
// could not fit in the rest of the payload at minBytes each, so a
// hostile count cannot size an allocation.
func (d *Decoder) Count16(minBytes int) int { return d.fits(int(d.U16()), minBytes) }

// Count32 is Count16 for a uint32 count.
func (d *Decoder) Count32(minBytes int) int { return d.fits(int(d.U32()), minBytes) }

// fits returns n, or 0 after latching an error when n elements of
// minBytes each overrun the payload. A latched decoder's count reads
// as 0, which always fits.
func (d *Decoder) fits(n, minBytes int) int {
	if n*minBytes > len(d.b)-d.off {
		d.Failf("count %d overruns payload", n)
		return 0
	}
	return n
}

// AppendString appends a uint16-length-prefixed string.
func AppendString(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: string of %d bytes", ErrTooLarge, len(s))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

// AppendF64 appends a float64 bit pattern.
func AppendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBool appends a bool as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
