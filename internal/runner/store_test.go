package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testRecord(id string, seed int64) Record {
	return Record{
		ID: id, Experiment: "t", Group: "g", Seed: seed,
		Status: StatusOK, Attempts: 1,
		Result: &Result{Events: uint64(seed) * 10, Extra: map[string]float64{"x": float64(seed)}},
	}
}

// putAll appends records through st and fails the test on any error.
func putAll(t *testing.T, st *Store, recs ...Record) {
	t.Helper()
	for _, rec := range recs {
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// logLines returns the store's log file split into lines, each with its
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

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("sweep/0001-bm=ABM", 99)
	rec.Config = map[string]any{"BM": "ABM"}
	putAll(t, st, rec, testRecord("b", 2), testRecord("c", 3))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ID != rec.ID || got[1].ID != "b" || got[2].ID != "c" {
		t.Fatalf("replayed %+v, want a, b, c in append order", got)
	}
	if got[0].Seed != 99 || got[0].Result == nil || got[0].Result.Events != 990 ||
		got[0].Result.Extra["x"] != 99 || !Reusable(Spec{Config: rec.Config}, 99, got[0]) {
		t.Fatalf("round trip mangled record: %+v", got[0])
	}
	// Each line is a checksum, a tab and a standalone JSON record.
	line := logLines(t, dir)[0]
	_, payload, ok := strings.Cut(strings.TrimSuffix(line, "\n"), "\t")
	var plain map[string]any
	if !ok || json.Unmarshal([]byte(payload), &plain) != nil || plain["status"] != "ok" {
		t.Fatalf("log line schema: %q", line)
	}
}

func TestStoreFailedNotCompleted(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	putAll(t, st, Record{ID: "a", Status: StatusFailed, Error: "boom"})
	done, err := st.Completed()
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("failed record treated as completed: %v", done)
	}
	// A later successful attempt supersedes the failure.
	putAll(t, st, Record{ID: "a", Status: StatusOK, Result: &Result{}})
	if done, _ = st.Completed(); len(done) != 1 {
		t.Fatalf("ok record not visible: %v", done)
	}
}

// TestStoreCompletedLatestWins checks duplicate resolution: the latest
// record of a job decides, and only ok records resume.
func TestStoreCompletedLatestWins(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fail := testRecord("a", 1)
	fail.Status, fail.Result = StatusFailed, nil
	late := testRecord("b", 2) // a later failure supersedes a success
	late.Status, late.Result = StatusFailed, nil
	putAll(t, st, fail, testRecord("a", 1), testRecord("b", 2), late)
	done, err := st.Completed()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := done["a"]; !ok || len(done) != 1 {
		t.Fatalf("completed = %v, want only a", done)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreTornManifestTail replays the crash a kill mid-commit leaves
// behind in records.log, the store's manifest of finished jobs: the
// final line is a partial write. The torn tail must be dropped (its job
// re-runs) while every whole record before it resumes, and damage
// anywhere *else* in the log must be an error rather than a silent skip.
func TestStoreTornManifestTail(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, st, testRecord("a", 1), testRecord("b", 2), testRecord("c", 3))
	st.Close()
	lines := logLines(t, dir)
	if len(lines) != 3 {
		t.Fatalf("log lines = %d, want 3", len(lines))
	}

	// Crash replay: the last record is cut mid-line, no trailing newline.
	torn := lines[0] + lines[1] + lines[2][:len(lines[2])/2]
	writeLog(t, dir, torn)
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	done, err := st2.Completed()
	if err != nil {
		t.Fatalf("torn tail must not fail resume: %v", err)
	}
	if _, ok := done["a"]; !ok || len(done) != 2 {
		t.Fatalf("resumed %v, want a and b (torn tail dropped)", done)
	}

	// A fully-terminated garbage line mid-file is corruption, not a torn
	// append (a commit is one write of whole lines), and must surface.
	writeLog(t, dir, lines[0]+"{broken\n"+lines[2])
	if _, err := st2.Completed(); err == nil {
		t.Fatal("mid-file garbage line silently skipped")
	}
	// So is a flipped byte inside a whole record: its checksum fails.
	flipped := []byte(lines[0] + lines[1] + lines[2])
	flipped[strings.IndexByte(lines[0], '\t')+5] ^= 0xff
	writeLog(t, dir, string(flipped))
	if _, err := st2.Completed(); err == nil {
		t.Fatal("mid-file checksum failure silently skipped")
	}
}

// TestStoreTornTailThenAppend proves a store reopened over a torn tail
// keeps working: OpenStore truncates the fragment, so the next commit
// starts on its own line instead of merging with the torn bytes into
// one unparseable (and now mid-file, so fatal) line.
func TestStoreTornTailThenAppend(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, st, testRecord("a", 1))
	st.Close()

	// Tear the only line, then append a fresh record through a reopened
	// store.
	writeLog(t, dir, logLines(t, dir)[0][:20])
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	putAll(t, st2, testRecord("b", 2))
	done, err := st2.Completed()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := done["b"]; !ok || len(done) != 1 {
		t.Fatalf("want exactly {b}, got %v", done)
	}
}

func TestStoreSizeTrigger(t *testing.T) {
	dir := t.TempDir()
	st, err := openStore(dir, 3, time.Hour) // deadline effectively off
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		putAll(t, st, testRecord(string(rune('a'+i)), int64(i)))
	}
	// 7 puts with batch size 3: two full batches committed, one record
	// still pending.
	if n := len(logLines(t, dir)); n != 6 {
		t.Fatalf("committed %d records before close, want 6", n)
	}
	if st.Stats().Pending != 1 {
		t.Fatalf("stats %+v, want 1 pending", st.Stats())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(logLines(t, dir)); n != 7 {
		t.Fatalf("committed %d records after close, want 7", n)
	}
	if s := st.Stats(); s.Records != 7 || s.Batches != 3 || s.MaxBatchLen != 3 {
		t.Fatalf("stats %+v", s)
	}
}

func TestStoreDeadlineTrigger(t *testing.T) {
	dir := t.TempDir()
	st, err := openStore(dir, 1<<20, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	putAll(t, st, testRecord("a", 1))
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Records != 1 {
		if time.Now().After(deadline) {
			t.Fatal("deadline commit never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(logLines(t, dir)); n != 1 {
		t.Fatalf("log holds %d lines after the deadline commit, want 1", n)
	}
}

// TestPoolResumeFromManifest runs a pool against the store three
// times: the second run serves every completed job from the record log
// and re-runs only the one that failed; the third re-runs nothing.
func TestPoolResumeFromManifest(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	var fixed atomic.Bool // flips the injected failure off for the resume sweep
	build := func() *Plan {
		plan := &Plan{Name: "resume", Seed: 5}
		for i := 0; i < 12; i++ {
			plan.Add(Spec{Experiment: "resume", Run: fakeJob(&calls)})
		}
		// Job 7 fails until "fixed".
		inner := plan.Specs[7].Run
		plan.Specs[7].Run = func(ctx context.Context, seed int64) (Result, error) {
			if !fixed.Load() {
				return Result{}, errors.New("transient infrastructure failure")
			}
			return inner(ctx, seed)
		}
		return plan
	}
	sweep := func() []Record {
		st, err := openStore(dir, 4, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := (&Pool{Workers: 4, Store: st}).Run(context.Background(), build())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return recs
	}

	recs := sweep()
	if len(Failed(recs)) != 1 || recs[7].Status != StatusFailed {
		t.Fatalf("first sweep: %+v", Failed(recs))
	}
	if n := calls.Load(); n != 11 {
		t.Fatalf("first sweep calls = %d, want 11", n)
	}

	// Completed jobs come from the log; only the failed one re-runs (and
	// now succeeds). A third sweep then re-runs nothing.
	fixed.Store(true)
	for round, wantCalls := range []int64{1, 0} {
		before := calls.Load()
		again := sweep()
		if n := calls.Load() - before; n != wantCalls {
			t.Fatalf("resume %d re-ran %d jobs, want %d", round, n, wantCalls)
		}
		cached := 0
		for i, r := range again {
			if !r.OK() {
				t.Fatalf("resume %d record %d: %+v", round, i, r)
			}
			if r.Cached {
				cached++
			}
			if r.Seed != recs[i].Seed {
				t.Fatalf("resume changed seed of job %d: %d vs %d", i, r.Seed, recs[i].Seed)
			}
		}
		if want := 12 - int(wantCalls); cached != want {
			t.Fatalf("resume %d cached = %d, want %d", round, cached, want)
		}
	}
}

// TestPoolResumeChecksSeedAndConfig shares one store between runs that
// differ only in their seed or config: job IDs match, but the stored
// records belong to another run and must not be served. A config whose
// int64 field exceeds float64 precision must still be reused when
// nothing changed.
func TestPoolResumeChecksSeedAndConfig(t *testing.T) {
	type cfg struct {
		Scale string
		Big   int64
	}
	dir := t.TempDir()
	run := func(seed int64, c cfg) (calls int64) {
		var n atomic.Int64
		plan := &Plan{Name: "fig", Seed: seed}
		for i := 0; i < 3; i++ {
			plan.Add(Spec{ID: fmt.Sprintf("fig/%03d", i), Config: c, Run: fakeJob(&n)})
		}
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (&Pool{Workers: 2, Store: st}).Run(context.Background(), plan); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return n.Load()
	}
	base := cfg{Scale: "small", Big: 1<<62 + 1}
	if n := run(42, base); n != 3 {
		t.Fatalf("first run executed %d jobs, want 3", n)
	}
	if n := run(42, base); n != 0 {
		t.Fatalf("identical rerun executed %d jobs, want 0 (all reused)", n)
	}
	if n := run(7, base); n != 3 {
		t.Fatalf("run at another seed executed %d jobs, want 3 (stale records served)", n)
	}
	if n := run(7, cfg{Scale: "medium", Big: base.Big}); n != 3 {
		t.Fatalf("run at another scale executed %d jobs, want 3 (stale records served)", n)
	}
	if n := run(7, cfg{Scale: "medium", Big: base.Big + 1}); n != 3 {
		t.Fatalf("run with a changed int64 field executed %d jobs, want 3", n)
	}
}
