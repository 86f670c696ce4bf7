package codec

import (
	"strings"
	"testing"
)

// TestByName: every name the CLI and the service accept builds, each call of
// topk-ef's constructor is a new instance (its residual is per sender), the
// SketchML family takes the caller's options and has them checked up front,
// and an unknown name is refused by name.
func TestByName(t *testing.T) {
	for _, name := range []string{"sketchml", "adam", "adam32", "zipml8", "zipml16", "key", "keyquan", "onebit", "topk", "topk-ef"} {
		newCodec, err := ByName(name, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if newCodec() == nil {
			t.Errorf("%s: constructor returned nil", name)
		}
	}
	newEF, err := ByName("topk-ef", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := newEF(), newEF(); a == b {
		t.Error("topk-ef: two parties would share one residual")
	}

	opts := DefaultOptions()
	opts.Buckets = 16
	newCodec, err := ByName("key", opts)
	if err != nil {
		t.Fatal(err)
	}
	got := newCodec().(*SketchML).Options()
	if got.Buckets != 16 || got.Quantize || got.MinMax {
		t.Errorf("key with 16 buckets built %+v", got)
	}

	opts.Buckets = 0
	for _, name := range []string{"sketchml", "key", "keyquan"} {
		if _, err := ByName(name, opts); err == nil {
			t.Errorf("%s accepted Buckets = 0", name)
		}
	}
	if _, err := ByName("adam", opts); err != nil {
		t.Errorf("adam has no use for the options, yet: %v", err)
	}
	if _, err := ByName("gzip", DefaultOptions()); err == nil || !strings.Contains(err.Error(), `unknown codec "gzip"`) {
		t.Errorf(`ByName("gzip") = %v, want unknown codec "gzip"`, err)
	}
}
