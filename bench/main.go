// Command bench is the repository's benchmark: it trains through the real
// public entry points (trainer.Run over loopback TCP and over the
// in-memory transport, star and tree gathers, an HTTP job through
// service.Handler), prints every metric BENCHMARK.json declares by name
// and unit, checks the program's outputs, and exits non-zero when a check
// fails. See README.md in this directory.
//
//	go run ./bench                                  every workload, untraced then traced
//	go run ./bench -workload lr-raw-star-tcp -seed 2
//	go run ./bench -workload lr-raw-star-tcp -seed 2 -seconds 15 -trace 0
//	go run ./bench -compare parent.json change.json
//	go run ./bench -compare p1.json,p2.json c1.json,c2.json
//
// With -trace 0 or 1 the command is one measured run in this process and
// its last line of output is the run's result as one JSON object. Without
// -trace it starts each run as a fresh child process of itself, so that
// heap and peak RSS belong to one workload.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// outDir holds everything a run writes: traces, result sets and scratch
// files. It is relative to the working directory, the root of a checkout.
const outDir = "bench/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run only this workload (default: all)")
	seeds := fs.String("seed", "1", "seed, or comma-separated seeds, of the generated inputs")
	seconds := fs.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", -1, "0: one untraced run in this process; 1: one traced run; default: both, as child processes")
	noTrace := fs.Bool("no-trace", false, "skip the traced runs")
	out := fs.String("out", "", "write the result set to this file (default: "+outDir+"/results.json)")
	compare := fs.Bool("compare", false, "compare two result sets: -compare parent.json change.json (each may be several files, comma-separated)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two result files"))
		}
		regressed, err := compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	var seedList []int64
	for _, s := range strings.Split(*seeds, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fail(fmt.Errorf("-seed: %w", err))
		}
		seedList = append(seedList, n)
	}
	selected := workloads
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			return fail(err)
		}
		selected = []workload{w}
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(stderr, "bench: warning: GOMAXPROCS < 2, so every party of a job shares one core and rounds/s says little about a real host")
	}

	if *trace == 0 || *trace == 1 {
		if len(selected) != 1 || len(seedList) != 1 {
			return fail(errors.New("-trace 0|1 runs one workload with one seed: give -workload and a single -seed"))
		}
		return runOne(spec, selected[0], seedList[0], *seconds, *trace == 1, stdout, stderr)
	}

	// Orchestrate: each run is a fresh child process of this command.
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	set := resultSet{Host: hostFacts()}
	code := 0
	for _, w := range selected {
		for _, seed := range seedList {
			for traced := 0; traced <= 1; traced++ {
				if traced == 1 && *noTrace {
					continue
				}
				fmt.Fprintf(stdout, "== %s seed %d trace %d\n", w.name, seed, traced)
				res, err := runChild(self, w.name, seed, *seconds, traced, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s seed %d trace %d: %v\n", w.name, seed, traced, err)
					code = 1
					continue
				}
				set.Runs = append(set.Runs, runRecord{Workload: w.name, Seed: seed, Traced: traced == 1, result: *res})
			}
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "results.json")
	}
	if err := set.write(path); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "result set written to %s\n", path)
	return code
}

// runOne is one measured run. Everything it prints before the last line is
// for people; the last line is the result object.
func runOne(spec *benchSpec, w workload, seed int64, seconds float64, traced bool, stdout, stderr io.Writer) int {
	var res *result
	var err error
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
		res, err = runTraced(w, seed, outDir)
	} else {
		res, err = runUntraced(w, seed, seconds, outDir, stdout)
	}
	if err != nil {
		// The run itself failed: every operation counts as failed and no
		// result is printed.
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	res.failures = append(res.failures, checkDeclared(res.Metrics, declared)...)
	res.Correct = len(res.failures) == 0
	printMetrics(stdout, w, res.Metrics)
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// naOn reports whether a metric does not apply to a workload; its value is
// then 0 in the result object and "n/a" in the table. Only checkpoint and
// service-client metrics off the service row, and in-run merges on the
// star rows, are ever n/a.
func naOn(w workload, name string) bool {
	switch name {
	case "service.submit_ms", "service.queue_to_start_ms", "service.status_poll_us.p50",
		"service.ckpt_write_ms.mean", "service.ckpt_bytes", "service.ckpt_stall_share":
		return !w.service
	case "codec.merge_ms_per_call.p50":
		return !w.tree
	}
	return false
}

func printMetrics(out io.Writer, w workload, m metricSet) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if naOn(w, name) {
			fmt.Fprintf(out, "%-44s %14s %s\n", name, "n/a", m[name].Unit)
			continue
		}
		fmt.Fprintf(out, "%-44s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// runChild starts one run as a child process, passes its table through and
// parses the result object on its last line.
func runChild(self, workloadName string, seed int64, seconds float64, traced int, stdout, stderr io.Writer) (*result, error) {
	cmd := exec.Command(self,
		"-workload", workloadName, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced))
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result object on the last line: %w", err)
	}
	if runErr != nil {
		return nil, fmt.Errorf("output checks failed: %w", runErr)
	}
	return &res, nil
}
