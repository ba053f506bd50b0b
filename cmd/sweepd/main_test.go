package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"abm/internal/experiments"
	"abm/internal/runner"
)

// cli drives the CLI in-process and returns its exit code, stdout
// and stderr.
func cli(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// tinyGrid is a four-job real simulation grid that runs in well under a
// second.
var tinyGrid = []string{"-bms", "DT,ABM", "-loads", "0.4", "-reps", "2",
	"-duration-ms", "0.25", "-seed", "42", "-quiet"}

// TestServeLocalThenResume runs a local-only sweep (no -addr, so no
// listener), then resumes it into the same -out: every job must come
// from the log and the aggregate table must be byte-identical.
func TestServeLocalThenResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	args := append([]string{"serve", "-workers", "2", "-out", dir}, tinyGrid...)
	code, first, stderr := cli(t, args...)
	if code != 0 {
		t.Fatalf("serve exited %d:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "local only") || !strings.Contains(stderr, "4 ok (0 from log)") {
		t.Fatalf("serve stderr:\n%s", stderr)
	}

	// A fresh sweep into a directory that holds a log is refused.
	if code, _, stderr := cli(t, args...); code != 2 || !strings.Contains(stderr, "-resume") {
		t.Fatalf("second serve without -resume exited %d:\n%s", code, stderr)
	}

	code, again, stderr := cli(t, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resume exited %d:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "4 ok (4 from log)") {
		t.Fatalf("resume did not serve every job from the log:\n%s", stderr)
	}
	if again != first {
		t.Fatalf("resumed output differs\nfirst:\n%s\nresumed:\n%s", first, again)
	}
}

// TestServeDryRun checks -dry-run prints exactly the jobs and seeds the
// grid's plan holds, and runs nothing.
func TestServeDryRun(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := cli(t, append([]string{"serve", "-dry-run", "-out", dir}, tinyGrid...)...)
	if code != 0 {
		t.Fatalf("dry run exited %d:\n%s", code, stderr)
	}
	grid := experiments.Grid{Name: "sweep", Seed: 42, Reps: 2,
		BMs: []string{"DT", "ABM"}, Loads: []float64{0.4}, DurationMS: 0.25}
	plan, err := grid.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for i, s := range plan.Specs {
		fmt.Fprintf(&want, "%s\tseed=%d\n", s.ID, plan.SeedOf(i))
	}
	if stdout != want.String() {
		t.Fatalf("dry run listed\n%s\nwant\n%s", stdout, want.String())
	}
	if code, _, _ := cli(t, "status", "-out", dir); code == 0 {
		t.Fatal("dry run left a record log behind")
	}
}

// TestServeNeedsWorkers rejects a sweep nobody can run: no in-process
// workers and no listener for remote ones.
func TestServeNeedsWorkers(t *testing.T) {
	code, _, stderr := cli(t, append([]string{"serve", "-workers", "0", "-out", t.TempDir()}, tinyGrid...)...)
	if code != 2 || !strings.Contains(stderr, "-addr") {
		t.Fatalf("serve -workers 0 without -addr exited %d:\n%s", code, stderr)
	}
}

// TestStatusOverFiguresOutput proves figures and sweeps share one
// store: the records a figure run leaves in its -out directory (here
// fig5sim, through the same runner.Store and options cmd/figures uses)
// summarize through sweepd status -out.
func TestStatusOverFiguresOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the burst lab")
	}
	dir := t.TempDir()
	store, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := &experiments.RunOptions{Workers: 1, Store: store}
	if err := experiments.RunFigureOpts(opts, "fig5sim", experiments.ScaleSmall, 42, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := cli(t, "status", "-out", dir)
	if code != 0 {
		t.Fatalf("status exited %d:\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, `sweep "fig5sim": 48 jobs`) {
		t.Fatalf("status header:\n%s", stdout)
	}
	for _, group := range []string{"DT,ports=2,queues=1,rate=10x", "ABM,ports=14,queues=1,rate=20x"} {
		if !strings.Contains(stdout, group+" ") {
			t.Errorf("status lacks group %s:\n%s", group, stdout)
		}
	}
}
