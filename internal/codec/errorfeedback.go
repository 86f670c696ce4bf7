package codec

import (
	"fmt"
	"math"

	"sketchml/internal/gradient"
)

// ErrorFeedback wraps any lossy codec with residual compensation: the
// compression error of each message is remembered locally and added to the
// next gradient before encoding, so dropped or decayed mass is eventually
// transmitted instead of lost. This is the standard companion technique for
// aggressive compressors (1-bit SGD shipped with it; Top-K needs it to
// converge) and an extension beyond the paper, used by the ablation-lossy
// experiment.
//
// An ErrorFeedback instance carries per-sender state and must be used by a
// single encoding goroutine: build it inside trainer.Config.CodecFactory,
// which the trainer calls once per party. Decode is stateless and passes
// through.
type ErrorFeedback struct {
	inner    Codec
	residual map[uint64]float64
}

// NewErrorFeedback wraps inner with residual compensation.
func NewErrorFeedback(inner Codec) *ErrorFeedback {
	return &ErrorFeedback{inner: inner, residual: map[uint64]float64{}}
}

// Name implements Codec.
func (c *ErrorFeedback) Name() string { return c.inner.Name() + "+EF" }

// ResidualNorm returns the L2 norm of the accumulated residual — useful to
// observe how much mass is in flight.
func (c *ErrorFeedback) ResidualNorm() float64 {
	var s float64
	for _, v := range c.residual {
		s += v * v
	}
	return math.Sqrt(s)
}

// Encode implements Codec: encodes g plus the accumulated residual, then
// stores the new residual (compensated − decoded).
func (c *ErrorFeedback) Encode(g *gradient.Sparse) ([]byte, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// Compensate: g' = g + residual.
	comp := map[uint64]float64{}
	for i, k := range g.Keys {
		comp[k] = g.Values[i]
	}
	for k, v := range c.residual {
		comp[k] += v
	}
	gc := gradient.FromMap(g.Dim, comp)

	msg, err := c.inner.Encode(gc)
	if err != nil {
		return nil, err
	}
	dec, err := c.inner.Decode(msg)
	if err != nil {
		return nil, fmt.Errorf("codec: error-feedback self-decode: %w", err)
	}
	// New residual: what was meant minus what the receiver will see.
	for k := range c.residual {
		delete(c.residual, k)
	}
	for i, k := range gc.Keys {
		c.residual[k] = gc.Values[i]
	}
	for i, k := range dec.Keys {
		r := c.residual[k] - dec.Values[i]
		if r == 0 {
			delete(c.residual, k)
		} else {
			c.residual[k] = r
		}
	}
	return msg, nil
}

// Decode implements Codec (stateless pass-through).
func (c *ErrorFeedback) Decode(data []byte) (*gradient.Sparse, error) {
	return c.inner.Decode(data)
}

// DecodeInto implements DecoderInto: it forwards to the inner codec's
// reuse path when available and otherwise copies a fresh inner Decode
// into dst.
func (c *ErrorFeedback) DecodeInto(data []byte, dst *gradient.Sparse) error {
	if d, ok := c.inner.(DecoderInto); ok {
		return d.DecodeInto(data, dst)
	}
	g, err := c.inner.Decode(data)
	if err != nil {
		return err
	}
	*dst = *g
	return nil
}
