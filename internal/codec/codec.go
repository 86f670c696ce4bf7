// Package codec implements the gradient compression codecs compared in the
// SketchML paper: the raw key–value format exchanged by plain Adam SGD, the
// ZipML uniform-quantification baseline, and the SketchML framework itself
// (quantile-bucket quantification + MinMaxSketch + compressed keys), with
// per-component switches for the paper's Figure 8 ablation.
//
// Every codec turns a sparse gradient into a wire message and back. Keys
// always survive exactly (Section 3.4: a corrupted key updates the wrong
// model dimension); values may be lossy depending on the codec.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"sketchml/internal/gradient"
)

// Codec encodes sparse gradients into wire messages and back.
type Codec interface {
	// Name identifies the codec in experiment output (e.g. "SketchML").
	Name() string
	// Encode serializes the gradient. The gradient must be valid
	// (sorted unique keys, finite values). Encode keeps no state from one
	// call to the next.
	Encode(g *gradient.Sparse) ([]byte, error)
	// Decode reconstructs a gradient from a message produced by Encode.
	// Decode must be safe for concurrent use: the trainer's driver decodes
	// the W worker messages of a round on W goroutines sharing one codec
	// instance.
	Decode(data []byte) (*gradient.Sparse, error)
}

// DecoderInto is implemented by codecs whose decode path can reuse a
// caller-owned destination gradient, so steady-state receive loops stop
// paying a fresh gradient per message. DecodeInto carries Decode's
// validation and concurrency contract — safe for concurrent use provided
// each goroutine passes its own dst — and leaves dst unspecified on
// error.
type DecoderInto interface {
	DecodeInto(data []byte, dst *gradient.Sparse) error
}

// DecodeReuse decodes data with c, filling dst when c implements
// DecoderInto and falling back to a fresh Decode otherwise. It returns
// the gradient holding the result: dst on the reuse path, a newly
// allocated gradient on the fallback, so callers can treat both shapes
// uniformly.
func DecodeReuse(c Codec, data []byte, dst *gradient.Sparse) (*gradient.Sparse, error) {
	if d, ok := c.(DecoderInto); ok {
		if err := d.DecodeInto(data, dst); err != nil {
			return nil, err
		}
		return dst, nil
	}
	return c.Decode(data)
}

// AppendEncoder is implemented by codecs whose encode path can append the
// message to a caller-owned buffer, so a sender writes it straight into its
// frame buffer instead of receiving a fresh message per call. AppendEncode
// appends exactly the bytes Encode returns and carries Encode's validation
// and metering; into a buffer with room for the message it allocates
// nothing. On error it returns dst unchanged.
//
// A wrapper that embeds an AppendEncoder and overrides Encode must override
// AppendEncode too: the promoted method would bypass the override. The same
// holds for DecoderInto and Decode.
type AppendEncoder interface {
	AppendEncode(dst []byte, g *gradient.Sparse) ([]byte, error)
}

// EncodeAppend appends g's message under c to dst, through AppendEncode
// when c implements AppendEncoder and by appending a fresh Encode's result
// otherwise.
func EncodeAppend(c Codec, dst []byte, g *gradient.Sparse) ([]byte, error) {
	if a, ok := c.(AppendEncoder); ok {
		return a.AppendEncode(dst, g)
	}
	msg, err := c.Encode(g)
	if err != nil {
		return dst, err
	}
	return append(dst, msg...), nil
}

// Breakdown reports where an encoded message's bytes went, for the
// Figure 8(b) message-size analysis.
type Breakdown struct {
	Header int // fixed framing
	Keys   int // key storage (Elias–Fano / delta-binary / fixed width)
	Values int // value storage (floats, packed indexes, or sketch cells)
	Meta   int // quantizer tables (bucket means, ranges)
}

// Total returns the full message size.
func (b Breakdown) Total() int { return b.Header + b.Keys + b.Values + b.Meta }

// Analyzer is implemented by codecs that can attribute their encoded bytes.
type Analyzer interface {
	// Analyze re-encodes g and reports the byte attribution.
	Analyze(g *gradient.Sparse) (Breakdown, error)
}

// message type tags, first byte of every encoded message.
const (
	tagRaw      = 0x01
	tagZipML    = 0x02
	tagSketchML = 0x03
)

var (
	errTruncated = errors.New("codec: truncated message")
	errBadTag    = errors.New("codec: message tag does not match codec")
)

// reader is a cursor over an encoded message with checked reads.
type reader struct {
	data []byte
	off  int
}

func (r *reader) remain() int { return len(r.data) - r.off }

func (r *reader) u8() (byte, error) {
	if r.remain() < 1 {
		return 0, errTruncated
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.remain() < 4 {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.remain() < 8 {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *reader) f32() (float32, error) {
	v, err := r.u32()
	return math.Float32frombits(v), err
}

// take returns the rest of the buffer for sub-decoders and advances by the
// amount they consumed via the returned advance func.
func (r *reader) rest() []byte { return r.data[r.off:] }

func (r *reader) advance(n int) error {
	if n < 0 || n > r.remain() {
		return errTruncated
	}
	r.off += n
	return nil
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendF32(dst []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
}

// keyBytes is the width of one fixed-width key: 4 bytes, or 8 when the
// model dimension does not fit 32 bits (wideKeys).
func keyBytes(wide bool) int {
	if wide {
		return 8
	}
	return 4
}

// appendFixedKeys appends keys at keyBytes(wide) bytes each: ZipML's key
// list.
func appendFixedKeys(out []byte, keys []uint64, wide bool) []byte {
	if wide {
		for _, k := range keys {
			out = binary.LittleEndian.AppendUint64(out, k)
		}
	} else {
		for _, k := range keys {
			out = binary.LittleEndian.AppendUint32(out, uint32(k))
		}
	}
	return out
}

// readFixedKeys fills keys with the next len(keys) keys written by
// appendFixedKeys and advances r past them. The keys must ascend strictly.
func readFixedKeys(r *reader, keys []uint64, wide bool) error {
	kb := keyBytes(wide)
	if r.remain()/kb < len(keys) {
		return errTruncated
	}
	src := r.rest()
	for i := range keys {
		if wide {
			keys[i] = binary.LittleEndian.Uint64(src[i*8:])
		} else {
			keys[i] = uint64(binary.LittleEndian.Uint32(src[i*4:]))
		}
		if i > 0 && keys[i] <= keys[i-1] {
			return fmt.Errorf("keys not strictly ascending at %d", i)
		}
	}
	r.off += len(keys) * kb
	return nil
}

// checkTag validates the leading message tag.
func checkTag(r *reader, want byte) error {
	tag, err := r.u8()
	if err != nil {
		return err
	}
	if tag != want {
		return fmt.Errorf("%w: got 0x%02x, want 0x%02x", errBadTag, tag, want)
	}
	return nil
}
