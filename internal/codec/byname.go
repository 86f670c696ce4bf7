package codec

import (
	"fmt"
	"slices"
	"strings"
)

// names is every codec name ByName accepts, in the order the command line's
// help and ByName's error list them.
var names = []string{"sketchml", "adam", "adam32", "zipml8", "zipml16", "key", "keyquan", "onebit", "topk"}

// Names returns the codec names ByName accepts.
func Names() []string { return slices.Clone(names) }

// ByName maps a codec name, as the command line and the job service spell
// them, to a constructor of that codec. The name and, for the SketchML
// family (sketchml, key, keyquan), opts are validated here, once: the
// returned constructor cannot fail; the trainer calls it once per party.
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
	default:
		return nil, fmt.Errorf("unknown codec %q (want %s)", name, strings.Join(names, ", "))
	}
	if _, err := NewSketchML(opts); err != nil {
		return nil, err
	}
	// NewSketchML is a function of opts alone, so what it accepted once it
	// accepts again.
	return func() Codec { return MustSketchML(opts) }, nil
}
