package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sketchml/internal/obs"
	"sketchml/internal/service"
)

// runMainArg, as the first argument, turns the test binary into the sketchml
// command: TestMain strips it and runs the real main() on the rest, which is
// how the flag tests below see what a user of the binary sees.
const runMainArg = "run-sketchml-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its exit code and combined
// output.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runMainArg}, args...)...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, out.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), out.String()
	}
	t.Fatalf("run %v: %v", args, err)
	return 0, ""
}

// TestRemovedFlagsAreUndefined: the flags of the deleted PS and SSP loops and
// of the codec's options are refused by name, never silently ignored, and
// nothing the command prints still points at them.
func TestRemovedFlagsAreUndefined(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "ps"}, {"-topology", "driver"}, {"-servers", "2"}, {"-staleness", "1"}, {"-straggler", "4"},
		// The codec's option flags: every front end runs the codec's defaults.
		{"-buckets", "256"}, {"-rows", "2"}, {"-groups", "8"}, {"-cols", "0.2"},
	} {
		code, out := runMain(t, args...)
		if code == 0 || !strings.Contains(out, "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: exit %d, output %q; want a non-zero exit naming the undefined flag", args, code, out)
		}
	}
	code, out := runMain(t, "-gather", "ring")
	if code == 0 || !strings.Contains(out, "star, tree") {
		t.Errorf("-gather ring: exit %d, output %q; want an error listing star, tree", code, out)
	}
	_, help := runMain(t, "-h")
	if !strings.Contains(help, "-metrics-out") || !strings.Contains(help, "-gather") {
		t.Fatalf("-h did not print the flag list:\n%s", help)
	}
	for _, gone := range []string{"topology", "-servers", "-staleness", "-straggler", "|ring", "/ring"} {
		if strings.Contains(help, gone) {
			t.Errorf("-h still mentions %q:\n%s", gone, help)
		}
	}
}

// TestTrainingRun drives one run end to end: the epoch table reports only
// what the run measured, and a codec or dataset that does not resolve is
// refused by name.
func TestTrainingRun(t *testing.T) {
	code, out := runMain(t, "-data", "kdd10", "-epochs", "1", "-codec", "topk")
	if code != 0 || !strings.Contains(out, "final: loss") {
		t.Fatalf("topk run: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "wall s") || strings.Contains(out, "sim s") {
		t.Errorf("epoch table should carry wall s and no sim s:\n%s", out)
	}
	for _, name := range []string{"gzip", "topk-ef"} {
		if code, out := runMain(t, "-codec", name); code == 0 || !strings.Contains(out, `unknown codec "`+name+`"`) {
			t.Errorf("-codec %s: exit %d, output %q", name, code, out)
		}
	}
	if code, out := runMain(t, "-data", "kdd11"); code == 0 || !strings.Contains(out, "open dataset") {
		t.Errorf("-data kdd11: exit %d, output %q; want it tried as a file path", code, out)
	}
}

// A flag combination that cannot work must be an explicit startup error, not
// a surprise after minutes of training. validateFlags refuses what only the
// flags decide; a gather shape the transport cannot run is refused by the
// run's builder, before it opens the dataset — absent here, so an accepted
// shape reads as the open error and a refused one never gets that far.
func TestValidateFlagsMetricsOutTopology(t *testing.T) {
	absent := filepath.Join(t.TempDir(), "absent.libsvm")
	cases := []struct {
		name             string
		serve, out       string
		gather           string
		tcp              bool
		wantErrSubstring string // empty: accepted
	}{
		{name: "driver with report", out: "m.json"},
		{name: "driver without report"},
		{name: "serve mode rejects metrics-out", serve: "127.0.0.1:0", out: "m.json",
			wantErrSubstring: "-metrics-out cannot be combined with -serve"},
		{name: "tree gather on driver", gather: "tree"},
		{name: "tree gather with report", out: "m.json", gather: "tree"},
		{name: "tree gather over tcp", gather: "tree", tcp: true,
			wantErrSubstring: "gather tree requires the in-memory transport"},
		{name: "star gather over tcp", tcp: true},
		{name: "serve mode ignores gather", serve: "127.0.0.1:0", gather: "tree", tcp: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.serve, tc.out)
			if err == nil && tc.serve == "" {
				spec := service.JobSpec{LibSVM: absent, Model: "LR", Codec: "sketchml",
					Workers: 4, Epochs: 1, Gather: tc.gather, TCP: tc.tcp}
				if _, _, _, err = spec.Build(nil); err != nil && strings.Contains(err.Error(), "open dataset") {
					err = nil
				}
			}
			if tc.wantErrSubstring == "" {
				if err != nil {
					t.Fatalf("%+v: %v, want accepted", tc, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("%+v accepted, want error", tc)
			}
			if !strings.Contains(err.Error(), tc.wantErrSubstring) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErrSubstring)
			}
			if strings.Contains(err.Error(), "topology") {
				t.Fatalf("error %q still mentions -topology", err)
			}
		})
	}
	// The binary refuses the combination before it builds a dataset.
	code, out := runMain(t, "-gather", "tree", "-tcp")
	if code == 0 || !strings.Contains(out, "requires the in-memory transport") || strings.Contains(out, "dataset:") {
		t.Fatalf("-gather tree -tcp: exit %d, output %q; want a refusal before any dataset line", code, out)
	}
}

// TestCLIAndServiceTrainTheSameJob: the command and the service are two front
// ends to one run description. The same fields, as flags to the binary and as
// a spec to an in-process server, train the same job: the same final loss to
// the bit, the same rounds and the same bytes on the wire.
func TestCLIAndServiceTrainTheSameJob(t *testing.T) {
	spec := service.JobSpec{
		Name: "same", Dataset: "kdd10", Model: "LR", Codec: "sketchml",
		Workers: 2, Epochs: 1, BatchFraction: 0.1, LR: 0.1, Lambda: 0.01, Seed: 7,
	}
	path := filepath.Join(t.TempDir(), "run.json")
	code, out := runMain(t, "-data", spec.Dataset, "-model", spec.Model, "-codec", spec.Codec,
		"-workers", "2", "-epochs", "1", "-batch", "0.1", "-lr", "0.1", "-lambda", "0.01", "-seed", "7",
		"-metrics-out", path)
	if code != 0 {
		t.Fatalf("sketchml: exit %d\n%s", code, out)
	}
	cli, err := obs.ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cliRounds := 0
	for _, e := range cli.Epochs {
		cliRounds += e.Rounds
	}

	store, err := service.NewCheckpointStore("", nil)
	if err != nil {
		t.Fatal(err)
	}
	lim := service.Limits{}
	if err := spec.Validate(lim); err != nil {
		t.Fatal(err)
	}
	srv := service.NewServer(lim, store, nil)
	defer srv.Close()
	job, err := srv.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	st := job.Status()
	for st.State != service.StateDone {
		if st.State == service.StateFailed || st.State == service.StateCancelled || time.Now().After(deadline) {
			t.Fatalf("service job did not finish: %+v", st)
		}
		time.Sleep(time.Millisecond)
		st = job.Status()
	}

	if math.Float64bits(st.FinalLoss) != math.Float64bits(cli.FinalLoss) {
		t.Errorf("final loss: service %v, sketchml %v", st.FinalLoss, cli.FinalLoss)
	}
	if st.Rounds != cliRounds {
		t.Errorf("completed rounds: service %d, sketchml %d", st.Rounds, cliRounds)
	}
	svc := job.Metrics.Snapshot()
	for _, name := range []string{obs.CounterClusterBytesRecv, "codec.wire_bytes"} {
		if got, want := svc.Counters[name], cli.Metrics.Counters[name]; got != want || want == 0 {
			t.Errorf("%s: service %d, sketchml %d; want equal and non-zero", name, got, want)
		}
	}
}
