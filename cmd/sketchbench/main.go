// Command sketchbench regenerates the tables and figures of the SketchML
// paper's evaluation on the synthetic substrate.
//
// Usage:
//
//	sketchbench -list
//	sketchbench -run fig8a
//	sketchbench -run all -scale 0.5
//
// Each experiment prints the rows or series the corresponding table/figure
// reports; EXPERIMENTS.md records a full run alongside the paper's numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sketchml"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes tables or JSON lines to stdout
// and errors to stderr, and returns the exit code (1 when an experiment
// failed, 2 on a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sketchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runID  = fs.String("run", "", "experiment id to run, or 'all'")
		list   = fs.Bool("list", false, "list experiment ids and exit")
		scale  = fs.Float64("scale", 1.0, "dataset/epoch scale factor (1.0 = full)")
		seed   = fs.Int64("seed", 1, "random seed for data generation")
		asJSON = fs.Bool("json", false, "emit machine-readable JSON instead of tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list || *runID == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, id := range sketchml.ExperimentIDs() {
			fmt.Fprintf(stdout, "  %-18s %s\n", id, sketchml.ExperimentTitle(id))
		}
		if *runID == "" && !*list {
			fmt.Fprintln(stdout, "\nrun one with: sketchbench -run <id>  (or -run all)")
		}
		return 0
	}

	cfg := sketchml.ExperimentConfig{Scale: *scale, Seed: *seed}
	ids := []string{*runID}
	if *runID == "all" {
		ids = sweepIDs()
	}
	code := 0
	enc := json.NewEncoder(stdout)
	for _, id := range ids {
		start := time.Now()
		rep, err := sketchml.RunExperiment(id, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "sketchbench: %v\n", err)
			code = 1
			continue
		}
		if *asJSON {
			if err := enc.Encode(jsonReport{
				ID:      rep.ID,
				Title:   rep.Title,
				Seconds: time.Since(start).Seconds(),
				Metrics: rep.Metrics,
				Text:    rep.Text,
			}); err != nil {
				fmt.Fprintf(stderr, "sketchbench: %v\n", err)
				code = 1
			}
			continue
		}
		fmt.Fprintf(stdout, "== %s: %s (%.1fs) ==\n%s\n", rep.ID, rep.Title, time.Since(start).Seconds(), rep.Text)
	}
	return code
}

// sweepIDs is what -run all runs: every experiment once. "tab3" aliases
// "fig13", so the sweep skips the duplicate.
func sweepIDs() []string {
	var ids []string
	for _, id := range sketchml.ExperimentIDs() {
		if id != "tab3" {
			ids = append(ids, id)
		}
	}
	return ids
}

// jsonReport is the machine-readable experiment record emitted by -json,
// one JSON object per line.
type jsonReport struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Seconds float64            `json:"seconds"`
	Metrics map[string]float64 `json:"metrics"`
	Text    string             `json:"text"`
}
