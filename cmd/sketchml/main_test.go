package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"sketchml"
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

// TestRemovedFlagsAreUndefined: the flags of the deleted PS and SSP loops are
// refused by name, never silently ignored, and nothing the command prints
// still points at them.
func TestRemovedFlagsAreUndefined(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "ps"}, {"-topology", "driver"}, {"-servers", "2"}, {"-staleness", "1"}, {"-straggler", "4"},
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

// TestTrainingRun drives one run end to end: every party gets its own codec
// instance (topk-ef keeps a per-sender residual; one instance shared by four
// worker goroutines is a concurrent map write), the epoch table reports only
// what the run measured, and a codec or dataset that does not resolve is
// refused by name.
func TestTrainingRun(t *testing.T) {
	code, out := runMain(t, "-data", "kdd10", "-epochs", "1", "-codec", "topk-ef")
	if code != 0 || !strings.Contains(out, "final: loss") {
		t.Fatalf("topk-ef run: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "wall s") || strings.Contains(out, "sim s") {
		t.Errorf("epoch table should carry wall s and no sim s:\n%s", out)
	}
	if code, out := runMain(t, "-codec", "gzip"); code == 0 || !strings.Contains(out, `unknown codec "gzip"`) {
		t.Errorf("-codec gzip: exit %d, output %q", code, out)
	}
	if code, out := runMain(t, "-data", "kdd11"); code == 0 || !strings.Contains(out, "open dataset") {
		t.Errorf("-data kdd11: exit %d, output %q; want it tried as a file path", code, out)
	}
}

// A flag combination that cannot work must be an explicit startup error, not
// a surprise after minutes of training.
func TestValidateFlagsMetricsOutTopology(t *testing.T) {
	cases := []struct {
		name             string
		serve, out       string
		gather           sketchml.Topology
		tcp              bool
		wantErrSubstring string // empty: accepted
	}{
		{name: "driver with report", out: "m.json"},
		{name: "driver without report"},
		{name: "serve mode rejects metrics-out", serve: "127.0.0.1:0", out: "m.json",
			wantErrSubstring: "-metrics-out cannot be combined with -serve"},
		{name: "tree gather on driver", gather: sketchml.TopologyTree},
		{name: "tree gather with report", out: "m.json", gather: sketchml.TopologyTree},
		{name: "tree gather over tcp", gather: sketchml.TopologyTree, tcp: true,
			wantErrSubstring: "-gather tree requires the in-memory transport"},
		{name: "star gather over tcp", tcp: true},
		{name: "serve mode ignores gather", serve: "127.0.0.1:0", gather: sketchml.TopologyTree, tcp: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.serve, tc.out, tc.gather, tc.tcp)
			if tc.wantErrSubstring == "" {
				if err != nil {
					t.Fatalf("validateFlags(%q, %q, %v, %v) = %v, want nil", tc.serve, tc.out, tc.gather, tc.tcp, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags(%q, %q, %v, %v) = nil, want error", tc.serve, tc.out, tc.gather, tc.tcp)
			}
			if !strings.Contains(err.Error(), tc.wantErrSubstring) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErrSubstring)
			}
			if strings.Contains(err.Error(), "topology") {
				t.Fatalf("error %q still mentions -topology", err)
			}
		})
	}
}
