package service

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestLimitsDefaults(t *testing.T) {
	l := Limits{}.fill()
	if l.MaxWorkers != 16 || l.MaxEpochs != 50 || l.MaxQueue != 32 ||
		l.MaxConcurrent != 2 || l.MaxWallClock != 10*time.Minute ||
		l.MaxBodyBytes != 64<<10 || l.RetryBudget != 2 || l.RetryBackoff != time.Second {
		t.Fatalf("defaults: %+v", l)
	}
	if got := (Limits{RetryBudget: -1}).fill().RetryBudget; got != 0 {
		t.Fatalf("negative RetryBudget filled to %d, want 0 (retries disabled)", got)
	}
}

func TestSpecValidateNormalizes(t *testing.T) {
	spec, err := ParseJobSpec([]byte(`{"name":"n","dataset":"kdd10","model":"LR","codec":"adam","workers":2,"epochs":1}`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if spec.DeadlineSec != int((10*time.Minute)/time.Second) {
		t.Fatalf("zero deadline normalized to %d", spec.DeadlineSec)
	}
}

func TestSpecValidateRejectsFilePaths(t *testing.T) {
	for _, ds := range []string{"/etc/passwd", "../data.libsvm", "C:\\data", "file.libsvm"} {
		spec := JobSpec{Name: "n", Dataset: ds, Model: "LR", Codec: "adam", Workers: 1, Epochs: 1}
		err := spec.Validate(Limits{})
		if err == nil {
			t.Fatalf("dataset %q accepted; the service must not read server files", ds)
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Fatalf("dataset %q: error does not wrap ErrBadSpec: %v", ds, err)
		}
	}
}

// TestSpecRefusesGoOnlyFields: the spec's file path and transport are set
// by Go callers only; a request that names either, in any case, is refused
// as an unknown field rather than read from the server's disk or honoured.
func TestSpecRefusesGoOnlyFields(t *testing.T) {
	for _, field := range []string{`"LibSVM":"/etc/passwd"`, `"libsvm":"/etc/passwd"`, `"TCP":true`, `"tcp":true`} {
		body := `{"name":"n","dataset":"kdd10","model":"LR","codec":"adam","workers":1,"epochs":1,` + field + `}`
		spec, err := ParseJobSpec([]byte(body), Limits{})
		if err == nil {
			t.Fatalf("%s accepted: %+v", field, spec)
		}
		key := field[:strings.Index(field, ":")]
		if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), "unknown field "+key) {
			t.Fatalf("%s: error %v, want ErrBadSpec naming unknown field %s", field, err, key)
		}
	}
}

func TestSpecValidateGather(t *testing.T) {
	mk := func(extra string) []byte {
		return []byte(`{"name":"n","dataset":"kdd10","model":"LR","codec":"sketchml","workers":4,"epochs":1` + extra + `}`)
	}
	cases := []struct {
		name string
		body []byte
		want string // "" = accept
	}{
		{name: "default star", body: mk(``)},
		{name: "explicit star", body: mk(`,"gather":"star"`)},
		{name: "tree on driver", body: mk(`,"gather":"tree"`)},
		{name: "unknown shape", body: mk(`,"gather":"mesh"`), want: "unknown topology"},
		{name: "removed ring shape", body: mk(`,"gather":"ring"`), want: "want star, tree"},
		// The fields of the deleted PS and SSP loops are refused by name, at
		// any value, rather than decoded and ignored.
		{name: "removed topology field", body: mk(`,"topology":"ps"`), want: `unknown field "topology"`},
		{name: "removed topology field at its old default", body: mk(`,"topology":"driver"`), want: `unknown field "topology"`},
		{name: "removed servers field", body: mk(`,"servers":2`), want: `unknown field "servers"`},
		{name: "removed staleness field", body: mk(`,"staleness":3`), want: `unknown field "staleness"`},
		{name: "tree with unmergeable codec", body: []byte(`{"name":"n","dataset":"kdd10","model":"LR","codec":"onebit","workers":4,"epochs":1,"gather":"tree"}`),
			want: "mergeable codec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseJobSpec(tc.body, Limits{})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("spec rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("spec accepted: %+v", spec)
			}
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("error does not wrap ErrBadSpec: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestSpecValidateSyntheticBounds: a synthetic spec is refused when an
// instance could ask for more distinct keys (2·avg_nnz−1) than dim holds,
// or when instances × avg_nnz is over maxSyntheticEntries; the edges pass.
func TestSpecValidateSyntheticBounds(t *testing.T) {
	cases := []struct {
		name                   string
		instances, dim, avgNNZ int
		want                   string // "" = accept
	}{
		{name: "draw fills dim", instances: 8, dim: 3, avgNNZ: 2},
		{name: "draw over dim", instances: 8, dim: 2, avgNNZ: 2, want: "avg_nnz 2 out of"},
		{name: "draw over odd dim", instances: 8, dim: 5, avgNNZ: 4, want: "avg_nnz 4 out of"},
		{name: "draw fills even dim", instances: 8, dim: 600, avgNNZ: 300},
		{name: "draw over even dim", instances: 8, dim: 600, avgNNZ: 301, want: "avg_nnz 301 out of"},
		{name: "benchmark job", instances: 120_000, dim: 2_000_000, avgNNZ: 40},
		{name: "entries at budget", instances: 1 << 16, dim: 1 << 24, avgNNZ: 1 << 10},
		{name: "entries over budget", instances: 1<<16 + 1, dim: 1 << 24, avgNNZ: 1 << 10, want: "instances × avg_nnz"},
		{name: "largest of each", instances: 1_000_000, dim: 1 << 24, avgNNZ: 1 << 23, want: "instances × avg_nnz"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := JobSpec{Name: "n", Dataset: "synthetic", Instances: tc.instances, Dim: uint64(tc.dim),
				AvgNNZ: tc.avgNNZ, Model: "LR", Codec: "adam", Workers: 1, Epochs: 1}
			err := spec.Validate(Limits{})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("spec rejected: %v", err)
				}
				return
			}
			if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want ErrBadSpec containing %q", err, tc.want)
			}
		})
	}
}

func TestDecodeJobSpecBodyBound(t *testing.T) {
	lim := Limits{MaxBodyBytes: 256}
	big := `{"name":"n","dataset":"kdd10","model":"LR","codec":"adam","workers":1,"epochs":1,"pad":"` +
		strings.Repeat("x", 1024) + `"}`
	_, err := DecodeJobSpec(strings.NewReader(big), lim.MaxBodyBytes, lim)
	if err == nil || !errors.Is(err, ErrBadSpec) {
		t.Fatalf("oversize body: %v", err)
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize body error %q does not mention the bound", err)
	}
}

// FuzzJobSpecDecode feeds arbitrary bytes to the control-API request
// decoder: it must never panic, must bound what it buffers, and anything
// it accepts must satisfy its own validator (names usable as filenames,
// budgets within limits).
func FuzzJobSpecDecode(f *testing.F) {
	f.Add([]byte(`{"name":"n","dataset":"kdd10","model":"LR","codec":"adam","workers":2,"epochs":1}`))
	f.Add([]byte(`{"name":"n","dataset":"synthetic","instances":100,"dim":50,"avg_nnz":5,"model":"SVM","codec":"sketchml","workers":1,"epochs":1,"topology":"ssp","staleness":3}`))
	f.Add([]byte(`{"name":"n","dataset":"kdd10","model":"LR","codec":"sketchml","workers":4,"epochs":1,"gather":"tree"}`))
	f.Add([]byte(`{"name":"../evil","dataset":"kdd10"}`))
	f.Add([]byte(`{"name":"n","dataset":"kdd10","model":"LR","codec":"adam","workers":-1,"epochs":1}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpec(strings.NewReader(string(data)), 4096, Limits{})
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("decode error outside the ErrBadSpec family: %v", err)
			}
			if spec != nil {
				t.Fatal("error with non-nil spec")
			}
			return
		}
		// Whatever survived must be admissible: safe name, budgets in range.
		if !nameOK(spec.Name) {
			t.Fatalf("accepted spec has unsafe name %q", spec.Name)
		}
		lim := Limits{}.fill()
		if spec.Workers < 1 || spec.Workers > lim.MaxWorkers {
			t.Fatalf("accepted spec has workers %d", spec.Workers)
		}
		if spec.Epochs < 1 || spec.Epochs > lim.MaxEpochs {
			t.Fatalf("accepted spec has epochs %d", spec.Epochs)
		}
		// A synthetic spec that passed can be generated: no instance asks
		// for more distinct keys than dim holds, and the entries are bounded.
		if spec.Dataset == "synthetic" &&
			(uint64(2*spec.AvgNNZ-1) > spec.Dim || spec.Instances*spec.AvgNNZ > maxSyntheticEntries) {
			t.Fatalf("accepted synthetic spec: instances %d, dim %d, avg_nnz %d", spec.Instances, spec.Dim, spec.AvgNNZ)
		}
		// The Go-only fields are never decoded from a request.
		if spec.LibSVM != "" || spec.TCP {
			t.Fatalf("accepted spec has Go-only fields set: libsvm %q, tcp %v", spec.LibSVM, spec.TCP)
		}
	})
}
