package codec

import "fmt"

// ByName maps a codec name, as the command line and the job service spell
// them, to a constructor of that codec. The name and, for the SketchML
// family (sketchml, key, keyquan), opts are validated here, once: the
// returned constructor cannot fail. It builds a fresh instance per call
// because every party of a run needs its own — topk-ef keeps a per-sender
// residual.
func ByName(name string, opts Options) (func() Codec, error) {
	switch name {
	case "sketchml":
	case "key":
		opts.Quantize, opts.MinMax = false, false
	case "keyquan":
		opts.MinMax = false
	case "adam":
		return func() Codec { return &Raw{} }, nil
	case "adam32":
		return func() Codec { return &Raw{Float32: true} }, nil
	case "zipml8":
		return func() Codec { return &ZipML{Bits: 8} }, nil
	case "zipml16":
		return func() Codec { return &ZipML{Bits: 16} }, nil
	case "onebit":
		return func() Codec { return &OneBit{} }, nil
	case "topk":
		return func() Codec { return &TopK{Fraction: 0.1} }, nil
	case "topk-ef":
		return func() Codec { return NewErrorFeedback(&TopK{Fraction: 0.1}) }, nil
	default:
		return nil, fmt.Errorf("unknown codec %q", name)
	}
	if _, err := NewSketchML(opts); err != nil {
		return nil, err
	}
	// NewSketchML is a function of opts alone, so what it accepted once it
	// accepts again.
	return func() Codec { return MustSketchML(opts) }, nil
}
