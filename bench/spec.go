package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json: the declared workloads and metrics. The
// command prints exactly the declared metrics and -compare applies the
// declared bounds, so the file and the code cannot drift apart unseen.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the root of the repository)", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// checkDeclared returns one failure per metric that is declared but not
// printed, printed but not declared, printed in another unit than
// declared, or not a finite number.
func checkDeclared(m metricSet, declared []specMetric) []string {
	var failures []string
	seen := map[string]bool{}
	for _, d := range declared {
		seen[d.Name] = true
		got, ok := m[d.Name]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf("metric %s is declared in BENCHMARK.json but was not measured", d.Name))
		case got.Unit != d.Unit:
			failures = append(failures, fmt.Sprintf("metric %s is in %s, declared in %s", d.Name, got.Unit, d.Unit))
		case !finite(got.Value):
			failures = append(failures, fmt.Sprintf("metric %s is %v", d.Name, got.Value))
		}
	}
	var undeclared []string
	for name := range m {
		if !seen[name] {
			undeclared = append(undeclared, name)
		}
	}
	sort.Strings(undeclared)
	for _, name := range undeclared {
		failures = append(failures, fmt.Sprintf("metric %s was measured but is not declared in BENCHMARK.json", name))
	}
	return failures
}

// host is what a result set records about the machine it was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostFacts() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

// runRecord is one run of a result set.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	result
}

// resultSet is what an orchestrated run writes and -compare reads.
type resultSet struct {
	Host host        `json:"host"`
	Runs []runRecord `json:"runs"`
}

func (s *resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readResultSets reads one side of a comparison: one result file, or
// several separated by commas whose runs are taken together, so that parent
// and change can be measured alternately, a file at a time.
func readResultSets(paths string) (*resultSet, error) {
	var all resultSet
	for _, path := range strings.Split(paths, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s resultSet
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		all.Host = s.Host
		all.Runs = append(all.Runs, s.Runs...)
	}
	return &all, nil
}
