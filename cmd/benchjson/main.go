// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so benchmark baselines can be committed and diffed
// (BENCH_codec.json) instead of eyeballed from logs.
//
// Usage:
//
//	go test ./internal/codec -bench . -benchmem | benchjson -o BENCH_codec.json
//	go test ./internal/codec -bench . -benchmem | benchjson -compare BENCH_codec.json
//	benchjson -o combined.json -merge-report report.json < bench.out
//
// It parses the standard benchmark line format
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   3 allocs/op   1.5 custom-unit
//
// keeping ns/op, B/op, allocs/op as first-class fields and any extra
// ReportMetric pairs in a metrics map. Context lines (goos/goarch/pkg/cpu)
// are captured into the header.
//
// -compare turns benchjson into a regression gate: the fresh results on
// stdin are checked against a committed baseline and the exit status is
// nonzero when ns/op or B/op regresses more than -threshold percent
// (default 25). -alloc-only restricts the check to B/op and allocs/op for
// cross-machine CI, where wall timing against a committed baseline is
// meaningless but allocation counts are stable.
//
// -ceilings FILE adds an absolute allocs/op gate: the file commits a hard
// ceiling per benchmark name, and any fresh row above its ceiling fails the
// run regardless of what the relative baseline says. Relative comparison
// catches drift; ceilings pin the zero-allocation steady-state contract
// (0 allocs/op rows stay 0 — a 0→1 regression is invisible to percentage
// thresholds, whose baseline denominator is zero). A ceiling naming no
// fresh row is an error, so stale entries cannot rot in the file.
//
// -merge-report embeds a training run report (written by `sketchml
// -metrics-out`) into the output document, pairing a run's compression and
// stage accounting with the micro-benchmark numbers of the same commit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"sketchml/internal/obs"
)

// Entry is one benchmark result line.
type Entry struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the whole document.
type Report struct {
	GOOS    string  `json:"goos,omitempty"`
	GOARCH  string  `json:"goarch,omitempty"`
	Pkg     string  `json:"pkg,omitempty"`
	CPU     string  `json:"cpu,omitempty"`
	Results []Entry `json:"results"`
	// RunReport is an optional embedded training run report (-merge-report),
	// tying a run's wire/stage accounting to the same commit's benchmarks.
	RunReport *obs.RunReport `json:"run_report,omitempty"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.String("compare", "", "baseline JSON to compare against; exit nonzero on regression")
	threshold := flag.Float64("threshold", 25, "regression threshold in percent for -compare")
	allocOnly := flag.Bool("alloc-only", false, "with -compare, check only B/op and allocs/op (cross-machine CI: committed ns/op is not comparable)")
	ceilings := flag.String("ceilings", "", "JSON file of absolute allocs/op ceilings per benchmark; exit nonzero when exceeded or stale")
	mergeReport := flag.String("merge-report", "", "embed this training run report (from `sketchml -metrics-out`) in the output")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	if *mergeReport != "" {
		rr, err := obs.ReadReportFile(*mergeReport)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		rep.RunReport = rr
	}

	if *ceilings != "" {
		violations, checked, err := checkCeilings(*ceilings, rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchjson: CEILING:", v)
		}
		if len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d allocs/op ceiling violation(s) across %d gated benchmark(s)\n",
				len(violations), checked)
			os.Exit(1)
		}
		fmt.Printf("benchjson: %d benchmark(s) within the allocs/op ceilings of %s\n", checked, *ceilings)
		if *compare == "" && *out == "" {
			return // gate mode: no JSON dump unless explicitly requested
		}
	}

	if *compare != "" {
		base, err := readBaseline(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		regs, matched, err := compareReports(base, rep, *threshold, *allocOnly)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", r)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond %.0f%% across %d compared benchmark(s)\n",
				len(regs), *threshold, matched)
			os.Exit(1)
		}
		fmt.Printf("benchjson: %d benchmark(s) within %.0f%% of %s\n", matched, *threshold, *compare)
		if *out == "" {
			return // gate mode: no JSON dump unless explicitly requested
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, _ = os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// ceilingFile is the committed absolute-gate document: benchmark name
// (GOMAXPROCS suffix ignored, like baseline matching) to the maximum
// allocs/op that row may report.
type ceilingFile struct {
	// AllocsPerOp maps a benchmark name to its hard allocs/op ceiling.
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
}

// checkCeilings enforces the absolute allocs/op ceilings in path against
// the fresh results. Unlike the relative gate, matching is strict both
// ways: a gated row above its ceiling is a violation, and a ceiling that
// matches no fresh row is an error (a renamed benchmark must move its
// ceiling, not orphan it — the same hygiene rule the lint baseline uses).
func checkCeilings(path string, cur *Report) (violations []string, checked int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var cf ceilingFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, 0, fmt.Errorf("parse ceilings %s: %w", path, err)
	}
	if len(cf.AllocsPerOp) == 0 {
		return nil, 0, fmt.Errorf("ceilings %s gates nothing (empty allocs_per_op)", path)
	}
	results := make(map[string]Entry, len(cur.Results))
	for _, e := range cur.Results {
		results[trimProcs(e.Name)] = e
	}
	for name, max := range cf.AllocsPerOp {
		e, ok := results[trimProcs(name)]
		if !ok {
			return nil, 0, fmt.Errorf("stale ceiling: %q matches no benchmark in the input; remove or rename it", name)
		}
		checked++
		if e.AllocsPerOp > max {
			violations = append(violations, fmt.Sprintf("%s: allocs/op %.6g exceeds ceiling %.6g",
				e.Name, e.AllocsPerOp, max))
		}
	}
	sort.Strings(violations)
	return violations, checked, nil
}

// readBaseline loads a committed benchmark baseline document.
func readBaseline(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	return &rep, nil
}

// trimProcs strips the "-N" GOMAXPROCS suffix the testing package appends
// to benchmark names on multi-proc runs, so a baseline recorded on one
// machine still matches output from another. Names whose final hyphen
// segment is not all digits (e.g. ".../par1") pass through untouched.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// compareReports checks cur against base benchmark-by-benchmark (matched by
// full name, GOMAXPROCS suffix ignored) and describes every metric that
// regressed by more than thresholdPct percent. Benchmarks present on only
// one side are skipped — renames must not hard-fail the gate — but zero
// matches is an error so a renamed-everything baseline cannot silently
// pass. Improvements and within-threshold noise pass. allocOnly swaps the
// ns/op check for allocs/op and keeps B/op, the machine-independent pair;
// B/op is compared only on rows that allocate.
func compareReports(base, cur *Report, thresholdPct float64, allocOnly bool) (regressions []string, matched int, err error) {
	baseline := make(map[string]Entry, len(base.Results))
	for _, e := range base.Results {
		baseline[trimProcs(e.Name)] = e
	}
	for _, e := range cur.Results {
		b, ok := baseline[trimProcs(e.Name)]
		if !ok {
			continue
		}
		matched++
		check := func(metric string, old, now float64) {
			if old <= 0 {
				return // metric absent from the baseline entry
			}
			pct := (now - old) / old * 100
			if pct > thresholdPct {
				regressions = append(regressions, fmt.Sprintf("%s: %s %.6g -> %.6g (+%.1f%%)",
					e.Name, metric, old, now, pct))
			}
		}
		if allocOnly {
			check("allocs/op", b.AllocsPerOp, e.AllocsPerOp)
		} else {
			check("ns/op", b.NsPerOp, e.NsPerOp)
		}
		// A row at 0 allocs/op on both sides has no per-call bytes: its B/op
		// is whatever warm-up garbage fell inside the timed loop, divided by
		// an iteration count that follows -benchtime, not the code. The
		// absolute ceilings hold those rows.
		if b.AllocsPerOp > 0 || e.AllocsPerOp > 0 {
			check("B/op", b.BytesPerOp, e.BytesPerOp)
		}
	}
	if matched == 0 {
		return nil, 0, fmt.Errorf("no benchmark names in common with the baseline (%d baseline, %d current)",
			len(base.Results), len(cur.Results))
	}
	sort.Strings(regressions)
	return regressions, matched, nil
}

func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			// Multi-package bench runs emit one pkg header per package;
			// record them all, comma-joined, rather than keeping the last.
			pkg := strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			if rep.Pkg != "" {
				pkg = rep.Pkg + ", " + pkg
			}
			rep.Pkg = pkg
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			e, err := parseLine(line)
			if err != nil {
				return nil, fmt.Errorf("line %q: %w", line, err)
			}
			rep.Results = append(rep.Results, e)
		}
	}
	return rep, sc.Err()
}

// parseLine parses one benchmark result line: a name, an iteration count,
// then (value, unit) pairs.
func parseLine(line string) (Entry, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Entry{}, fmt.Errorf("want at least name and iterations, have %d fields", len(fields))
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, fmt.Errorf("iterations: %w", err)
	}
	e := Entry{Name: fields[0], Iterations: iters}
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Entry{}, fmt.Errorf("odd number of value/unit fields: %d", len(rest))
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Entry{}, fmt.Errorf("value %q: %w", rest[i], err)
		}
		switch unit := rest[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
	}
	return e, nil
}
