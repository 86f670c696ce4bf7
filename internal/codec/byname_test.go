package codec

import (
	"strings"
	"testing"
)

// TestByName: every name the CLI and the service accept builds, the
// SketchML family takes the caller's options and has them checked up front,
// and an unknown name is refused by name with the list of valid ones.
func TestByName(t *testing.T) {
	for _, name := range Names() {
		newCodec, err := ByName(name, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if newCodec() == nil {
			t.Errorf("%s: constructor returned nil", name)
		}
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
	want := `unknown codec "gzip" (want ` + strings.Join(Names(), ", ") + ")"
	if _, err := ByName("gzip", DefaultOptions()); err == nil || err.Error() != want {
		t.Errorf(`ByName("gzip") = %v, want %s`, err, want)
	}
}
