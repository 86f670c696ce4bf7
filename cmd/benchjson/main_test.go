package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sketchml/internal/obs"
)

func TestParseBenchOutput(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: sketchml/internal/codec
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEncodeDecode/Encode/q256_r8_nnz5000_par1-8   	     100	   1037263 ns/op	      15171 compressed-B/msg	  431960 B/op	     128 allocs/op
BenchmarkEncodeDecode/Decode/q256_r8_nnz5000_par1-8   	     500	    249339 ns/op	      15171 compressed-B/msg	  171344 B/op	      32 allocs/op
PASS
ok  	sketchml/internal/codec	0.090s
`
	rep, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.Pkg != "sketchml/internal/codec" {
		t.Fatalf("bad header: %+v", rep)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(rep.Results))
	}
	e := rep.Results[0]
	if e.Name != "BenchmarkEncodeDecode/Encode/q256_r8_nnz5000_par1-8" {
		t.Errorf("name: %q", e.Name)
	}
	if e.Iterations != 100 || e.NsPerOp != 1037263 || e.BytesPerOp != 431960 || e.AllocsPerOp != 128 {
		t.Errorf("fields: %+v", e)
	}
	if got := e.Metrics["compressed-B/msg"]; got != 15171 {
		t.Errorf("custom metric: %v", got)
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",                  // no iterations
		"BenchmarkX notanumber",       // bad iterations
		"BenchmarkX 10 42",            // dangling value without unit
		"BenchmarkX 10 nan-ish ns/op", // bad value
	} {
		if _, err := parseLine(line); err == nil {
			t.Errorf("parseLine(%q): want error, got nil", line)
		}
	}
}

func TestCompareReports(t *testing.T) {
	base := &Report{Results: []Entry{
		{Name: "BenchmarkA/fast", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkA/slow", NsPerOp: 200, BytesPerOp: 2000, AllocsPerOp: 20},
		{Name: "BenchmarkOnlyInBase", NsPerOp: 50},
	}}

	t.Run("within threshold passes", func(t *testing.T) {
		cur := &Report{Results: []Entry{
			{Name: "BenchmarkA/fast", NsPerOp: 110, BytesPerOp: 1100, AllocsPerOp: 11}, // +10%
			{Name: "BenchmarkA/slow", NsPerOp: 150, BytesPerOp: 1500, AllocsPerOp: 15}, // improvement
		}}
		regs, matched, err := compareReports(base, cur, 25, false)
		if err != nil {
			t.Fatal(err)
		}
		if matched != 2 || len(regs) != 0 {
			t.Fatalf("matched=%d regs=%v, want 2 matches and no regressions", matched, regs)
		}
	})

	t.Run("regression detected per metric", func(t *testing.T) {
		cur := &Report{Results: []Entry{
			{Name: "BenchmarkA/fast", NsPerOp: 200, BytesPerOp: 1000, AllocsPerOp: 10}, // ns/op +100%
			{Name: "BenchmarkA/slow", NsPerOp: 200, BytesPerOp: 3000, AllocsPerOp: 20}, // B/op +50%
		}}
		regs, _, err := compareReports(base, cur, 25, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 2 {
			t.Fatalf("regressions %v, want exactly 2", regs)
		}
		if !strings.Contains(regs[0], "BenchmarkA/fast: ns/op") ||
			!strings.Contains(regs[1], "BenchmarkA/slow: B/op") {
			t.Errorf("unexpected regression lines: %v", regs)
		}
	})

	t.Run("alloc-only ignores ns/op and checks allocs/op", func(t *testing.T) {
		cur := &Report{Results: []Entry{
			{Name: "BenchmarkA/fast", NsPerOp: 10000, BytesPerOp: 1000, AllocsPerOp: 20}, // allocs +100%
		}}
		regs, _, err := compareReports(base, cur, 25, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
			t.Fatalf("regressions %v, want exactly one allocs/op line", regs)
		}
	})

	t.Run("procs suffix normalized", func(t *testing.T) {
		cur := &Report{Results: []Entry{
			{Name: "BenchmarkA/fast-8", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		}}
		_, matched, err := compareReports(base, cur, 25, false)
		if err != nil {
			t.Fatal(err)
		}
		if matched != 1 {
			t.Fatalf("matched=%d, want the -8 suffix to be ignored", matched)
		}
	})

	t.Run("unmatched skipped but zero matches errors", func(t *testing.T) {
		cur := &Report{Results: []Entry{
			{Name: "BenchmarkRenamedEverything", NsPerOp: 1},
		}}
		if _, _, err := compareReports(base, cur, 25, false); err == nil {
			t.Fatal("want error when no names match the baseline")
		}
	})

	t.Run("B/op of a row that does not allocate is not compared", func(t *testing.T) {
		zb := &Report{Results: []Entry{{Name: "BenchmarkZ", NsPerOp: 100, BytesPerOp: 3}}}
		cur := &Report{Results: []Entry{{Name: "BenchmarkZ", NsPerOp: 100, BytesPerOp: 9}}}
		if regs, _, err := compareReports(zb, cur, 25, true); err != nil || len(regs) != 0 {
			t.Fatalf("regs=%v err=%v, want amortized warm-up bytes at 0 allocs/op ignored", regs, err)
		}
		cur.Results[0].AllocsPerOp = 1 // now it allocates: the bytes count
		if regs, _, err := compareReports(zb, cur, 25, true); err != nil || len(regs) != 1 {
			t.Fatalf("regs=%v err=%v, want the B/op regression of an allocating row reported", regs, err)
		}
	})

	t.Run("metric absent from baseline skipped", func(t *testing.T) {
		zb := &Report{Results: []Entry{{Name: "BenchmarkZ", NsPerOp: 100, AllocsPerOp: 1}}} // no B/op recorded
		cur := &Report{Results: []Entry{{Name: "BenchmarkZ", NsPerOp: 100, BytesPerOp: 99999, AllocsPerOp: 1}}}
		regs, matched, err := compareReports(zb, cur, 25, false)
		if err != nil {
			t.Fatal(err)
		}
		if matched != 1 || len(regs) != 0 {
			t.Fatalf("matched=%d regs=%v, want B/op check skipped when baseline has none", matched, regs)
		}
	})
}

// TestCheckCeilings pins the absolute allocs/op gate: rows at or under
// their ceiling pass (zero ceilings included — the whole point is pinning
// 0-alloc rows), rows above fail, ceilings naming no fresh row are a hard
// error rather than silently passing, and the GOMAXPROCS suffix is
// normalized on both sides.
func TestCheckCeilings(t *testing.T) {
	writeCeilings := func(t *testing.T, body string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "ceilings.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cur := &Report{Results: []Entry{
		{Name: "BenchmarkZeroAlloc-8", AllocsPerOp: 0},
		{Name: "BenchmarkBounded", AllocsPerOp: 2},
		{Name: "BenchmarkHot", AllocsPerOp: 5},
	}}

	t.Run("within ceilings passes", func(t *testing.T) {
		path := writeCeilings(t, `{"allocs_per_op": {"BenchmarkZeroAlloc": 0, "BenchmarkBounded-16": 2}}`)
		violations, checked, err := checkCeilings(path, cur)
		if err != nil {
			t.Fatal(err)
		}
		if checked != 2 || len(violations) != 0 {
			t.Fatalf("checked=%d violations=%v, want 2 checked and none", checked, violations)
		}
	})

	t.Run("zero-alloc regression caught", func(t *testing.T) {
		path := writeCeilings(t, `{"allocs_per_op": {"BenchmarkHot": 0}}`)
		violations, _, err := checkCeilings(path, cur)
		if err != nil {
			t.Fatal(err)
		}
		if len(violations) != 1 || !strings.Contains(violations[0], "BenchmarkHot") {
			t.Fatalf("violations %v, want exactly one naming BenchmarkHot", violations)
		}
	})

	t.Run("stale ceiling is an error", func(t *testing.T) {
		path := writeCeilings(t, `{"allocs_per_op": {"BenchmarkRenamedAway": 0}}`)
		if _, _, err := checkCeilings(path, cur); err == nil ||
			!strings.Contains(err.Error(), "stale ceiling") {
			t.Fatalf("want stale-ceiling error, got %v", err)
		}
	})

	t.Run("empty gate is an error", func(t *testing.T) {
		path := writeCeilings(t, `{"allocs_per_op": {}}`)
		if _, _, err := checkCeilings(path, cur); err == nil {
			t.Fatal("want error for a ceilings file that gates nothing")
		}
	})
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":                  "BenchmarkX",
		"BenchmarkX-16":                 "BenchmarkX",
		"BenchmarkX":                    "BenchmarkX",
		"BenchmarkX/q256_r8_nnz_par1":   "BenchmarkX/q256_r8_nnz_par1", // par1 is not a procs suffix
		"BenchmarkX/sub-case":           "BenchmarkX/sub-case",
		"BenchmarkEncode/nnz500_par1-4": "BenchmarkEncode/nnz500_par1",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMergedRunReportRoundTrip pins the -merge-report document shape: a
// benchmark report with an embedded training run report must survive a
// JSON round trip with the run report's accounting intact, and stay
// readable by plain benchjson consumers when the field is absent.
func TestMergedRunReportRoundTrip(t *testing.T) {
	rr := &obs.RunReport{
		Tool: "sketchml", Codec: "sketchml", Model: "LR",
		Workers: 3, Compression: 4.5, TotalUpBytes: 1000, TotalRawUpBytes: 4500,
	}
	doc := &Report{
		Results:   []Entry{{Name: "BenchmarkA", Iterations: 1, NsPerOp: 42}},
		RunReport: rr,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.RunReport == nil || back.RunReport.Compression != 4.5 || back.RunReport.Workers != 3 {
		t.Fatalf("embedded run report lost in round trip: %+v", back.RunReport)
	}

	// Without a merge the field must vanish entirely, not appear as null.
	doc.RunReport = nil
	data, err = json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "run_report") {
		t.Errorf("run_report key serialized for a plain report: %s", data)
	}
}

func TestParseEmptyInput(t *testing.T) {
	rep, err := parse(strings.NewReader("no benchmarks here\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Fatalf("want 0 results, got %d", len(rep.Results))
	}
}
