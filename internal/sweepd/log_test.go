package sweepd

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"abm/internal/runner"
)

// The coordinator persists every result through runner.Store's record
// log, dir/records.log. These tests drive that log through the service:
// what a sweep commits must replay intact, survive a crash-torn tail,
// refuse silent corruption, and resume an in-process pool.

// logSweep runs a full synthetic sweep through a coordinator backed by a
// record log in dir and returns its records.
func logSweep(t *testing.T, dir string, jobs int, calls *atomic.Int64) []runner.Record {
	t.Helper()
	st, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(Config{Plan: syntheticPlan("log", jobs, calls), Store: st})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	runWorkers(t, c, 3)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return c.Records()
}

// logLines returns records.log in dir split into lines, each with its
// trailing newline.
func logLines(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "records.log"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
}

func writeLog(t *testing.T, dir, data string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "records.log"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFileLogRoundTrip checks that every record the coordinator
// accepted is in the log once the store closes, unchanged.
func TestFileLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := logSweep(t, dir, 9, nil)
	st, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("log replayed %d records, want %d", len(got), len(want))
	}
	byID := make(map[string]runner.Record, len(got))
	for _, rec := range got {
		byID[rec.ID] = rec
	}
	for _, w := range want {
		g, ok := byID[w.ID]
		if !ok {
			t.Fatalf("record %s missing from the log", w.ID)
		}
		if g.Seed != w.Seed || g.Group != w.Group || !g.OK() ||
			g.Result == nil || g.Result.Events != w.Result.Events ||
			g.Result.Extra["val"] != w.Result.Extra["val"] {
			t.Fatalf("record %s mangled: got %+v, want %+v", w.ID, g, w)
		}
	}
}

// TestFileLogTornTail cuts the log's final line mid-write — the shape a
// kill during a batch commit leaves — and checks a restarted
// coordinator keeps every whole record, re-runs only the torn job, and
// still aggregates like the uninterrupted sweep.
func TestFileLogTornTail(t *testing.T) {
	dir := t.TempDir()
	full := logSweep(t, dir, 9, nil)
	lines := logLines(t, dir)
	if len(lines) != 9 {
		t.Fatalf("log lines = %d, want 9", len(lines))
	}
	last := lines[len(lines)-1]
	writeLog(t, dir, strings.Join(lines[:len(lines)-1], "")+last[:len(last)/2])

	var calls atomic.Int64
	again := logSweep(t, dir, 9, &calls)
	if n := calls.Load(); n != 1 {
		t.Fatalf("resume over a torn tail ran %d jobs, want 1", n)
	}
	if got, want := aggBytes(t, again), aggBytes(t, full); got != want {
		t.Fatalf("resumed aggregate differs\nwant:\n%s\ngot:\n%s", want, got)
	}
	// The reopened store healed the tail, so the re-run's record landed
	// on its own line and the log replays whole.
	if n := len(logLines(t, dir)); n != 9 {
		t.Fatalf("log lines after resume = %d, want 9", n)
	}
}

// TestFileLogMidFileCorruption flips a byte away from the tail: that is
// damage, not a crash artifact, and the coordinator must refuse to
// resume from it.
func TestFileLogMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	logSweep(t, dir, 6, nil)
	data, err := os.ReadFile(filepath.Join(dir, "records.log"))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the first line's payload.
	data[strings.IndexByte(string(data), '\t')+5] ^= 0xff
	writeLog(t, dir, string(data))

	st, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := NewCoordinator(Config{Plan: syntheticPlan("log", 6, nil), Store: st}); err == nil {
		t.Fatal("coordinator resumed over mid-file corruption")
	}
}

// TestStoreAsPoolSink shares one log between the service and the
// in-process pool: a pool resuming from a log the coordinator wrote
// serves every job from it and re-runs nothing.
func TestStoreAsPoolSink(t *testing.T) {
	dir := t.TempDir()
	recs := logSweep(t, dir, 9, nil)

	st, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var calls atomic.Int64
	recs2, err := (&runner.Pool{Workers: 3, Store: st}).Run(t.Context(), syntheticPlan("log", 9, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("pool resume re-ran %d jobs, want 0", n)
	}
	for i := range recs2 {
		if !recs2[i].Cached || recs2[i].Seed != recs[i].Seed {
			t.Fatalf("record %d not served from the log: %+v", i, recs2[i])
		}
	}
}
