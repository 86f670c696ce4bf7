package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"sketchml"
)

func TestListNamesEveryExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, stderr.String())
	}
	listed := strings.Fields(stdout.String())
	for _, id := range sketchml.ExperimentIDs() {
		if !slices.Contains(listed, id) {
			t.Errorf("-list does not name %q", id)
		}
	}
}

func TestRunOneExperimentAsJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "fig4", "-scale", "0.1", "-json"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if n := strings.Count(stdout.String(), "\n"); n != 1 {
		t.Fatalf("%d lines of output, want one JSON line:\n%s", n, stdout.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	near, ok := rep.Metrics["fraction_near_zero"]
	if rep.ID != "fig4" || !ok || near <= 0 || near > 1 {
		t.Errorf("id %q, metrics %v: want fig4 with a fraction_near_zero in (0, 1]", rep.ID, rep.Metrics)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "fig99"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "fig99") || stdout.Len() != 0 {
		t.Errorf("stderr %q should name the id, stdout %q should be empty", stderr.String(), stdout.String())
	}
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// TestSweepSkipsTheAlias: -run all runs every experiment but "tab3", which
// is "fig13" under a second name. (The sweep itself is not run here: every
// experiment it names has its own test in internal/experiments.)
func TestSweepSkipsTheAlias(t *testing.T) {
	ids := sweepIDs()
	if slices.Contains(ids, "tab3") || !slices.Contains(ids, "fig13") {
		t.Errorf("sweep %v: want fig13 and not tab3", ids)
	}
	if want := len(sketchml.ExperimentIDs()) - 1; len(ids) != want {
		t.Errorf("sweep runs %d experiments, want %d", len(ids), want)
	}
}
