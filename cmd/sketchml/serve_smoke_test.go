package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"sketchml/internal/trainer"
)

// TestServiceSmoke is the end-to-end service gate (`make service-smoke`):
// it builds the real binary, starts it in -serve mode, submits a job over
// HTTP and polls it to completion, then submits a second long job and
// SIGTERMs the process mid-run — the drain must checkpoint that job to the
// configured directory and the process must exit cleanly (code 0). Gated
// behind SKETCHML_SERVICE_SMOKE=1 because it builds and execs a binary.
func TestServiceSmoke(t *testing.T) {
	if os.Getenv("SKETCHML_SERVICE_SMOKE") != "1" {
		t.Skip("set SKETCHML_SERVICE_SMOKE=1 (or run `make service-smoke`) to run the end-to-end service smoke")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sketchml")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build: %v", err)
	}

	ckptDir := filepath.Join(dir, "ckpt")
	cmd := exec.Command(bin,
		"-serve", "127.0.0.1:0",
		"-checkpoint-dir", ckptDir,
		"-drain-timeout", "60s",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}()

	// The server prints its bound address; everything after streams to the
	// test log so a hung smoke is diagnosable.
	sc := bufio.NewScanner(stdout)
	addrRe := regexp.MustCompile(`http://(127\.0\.0\.1:\d+)`)
	var base string
	lines := make(chan string, 64)
	for sc.Scan() {
		line := sc.Text()
		t.Logf("server: %s", line)
		if m := addrRe.FindStringSubmatch(line); m != nil {
			base = "http://" + m[1]
			break
		}
	}
	if base == "" {
		t.Fatalf("server never printed its address (scan err: %v)", sc.Err())
	}
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()

	type status struct {
		ID      string  `json:"id"`
		State   string  `json:"state"`
		Detail  string  `json:"detail"`
		Drained bool    `json:"drained"`
		Rounds  int     `json:"completed_rounds"`
		Loss    float64 `json:"final_loss"`
	}
	post := func(body string) (status, int) {
		t.Helper()
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st status
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
		}
		return st, resp.StatusCode
	}
	get := func(id string) status {
		t.Helper()
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	wait := func(id string, pred func(status) bool, what string) status {
		t.Helper()
		deadline := time.Now().Add(120 * time.Second)
		var st status
		for time.Now().Before(deadline) {
			st = get(id)
			if pred(st) {
				return st
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("job %s never reached %s; last %+v", id, what, st)
		return st
	}

	// Readiness before any job.
	if resp, err := http.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// Job 1: quick, runs to completion.
	quick := `{"name":"smoke-quick","dataset":"synthetic","instances":300,"dim":600,"avg_nnz":8,
		"model":"LR","codec":"adam","workers":2,"epochs":2,"seed":3}`
	st1, code := post(quick)
	if code != http.StatusAccepted {
		t.Fatalf("submit quick: %d", code)
	}
	done := wait(st1.ID, func(s status) bool {
		return s.State == "done" || s.State == "failed" || s.State == "cancelled"
	}, "a terminal state")
	if done.State != "done" {
		t.Fatalf("quick job finished %s (%s)", done.State, done.Detail)
	}

	// Job 2: long; SIGTERM lands mid-run and must drain it.
	long := `{"name":"smoke-drain","dataset":"synthetic","instances":2000,"dim":4000,"avg_nnz":20,
		"model":"LR","codec":"sketchml","workers":2,"epochs":50,"seed":3}`
	st2, code := post(long)
	if code != http.StatusAccepted {
		t.Fatalf("submit long: %d", code)
	}
	wait(st2.ID, func(s status) bool { return s.State == "running" }, "running")

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Drain stdout to EOF before Wait — Wait closes the pipe, so calling it
	// concurrently would race the scanner out of the final lines. The
	// watchdog kills a hung server, which closes its stdout and unblocks
	// the loop; Wait then reports the kill.
	watchdog := time.AfterFunc(120*time.Second, func() { _ = cmd.Process.Kill() })
	var tail []string
	for line := range lines {
		t.Logf("server: %s", line)
		tail = append(tail, line)
	}
	watchdog.Stop()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("server exited uncleanly after SIGTERM: %v", err)
	}
	if !strings.Contains(strings.Join(tail, "\n"), "drained cleanly") {
		t.Fatalf("server output missing the clean-drain line:\n%s", strings.Join(tail, "\n"))
	}

	// The drained job's checkpoint survived to disk, crash-safe, and is the
	// job's: it decodes (magic, version, CRC) to a round past the start under
	// the spec's workers and seed, so a torn or foreign file fails the gate.
	blob, err := os.ReadFile(filepath.Join(ckptDir, "smoke-drain.ckpt"))
	if err != nil {
		t.Fatalf("drained job left no checkpoint: %v", err)
	}
	cp, err := trainer.UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatalf("drained job's checkpoint does not decode: %v", err)
	}
	if cp.Rounds < 1 || cp.Workers != 2 || cp.Seed != 3 {
		t.Fatalf("drained job's checkpoint is at round %d with %d workers and seed %d, want round ≥ 1, 2 workers, seed 3",
			cp.Rounds, cp.Workers, cp.Seed)
	}
	// And no temp files were left behind by the atomic writer.
	entries, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Fatalf("atomic writer leaked temp file %s", e.Name())
		}
	}
	fmt.Println("service smoke: submit/poll/drain/exit all clean")
}
