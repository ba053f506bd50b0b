package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abm/internal/runner"
)

// tiny shrinks every workload to a smoke-test size: two 2 ms fig6 runs
// per cycle, one 3 ms replication of the sweep grid.
func tiny(workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, trace: trace, root: "..",
		window: 0.002, subSeeds: 2, reps: 1, sweepDur: 0.003,
	}
}

type declared struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEveryMetricPrints runs every declared workload on a tiny window,
// untraced and traced, and checks that exactly the declared metrics come
// out, each printed on its own line with its unit, and that every
// operation passed its checks.
func TestEveryMetricPrints(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %v", len(d.Workloads), workloadNames)
	}
	for _, wl := range d.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				var buf bytes.Buffer
				res, err := run(tiny(wl.Name, trace), &buf)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
				}
				want := d.EndToEnd
				if trace {
					want = d.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				out := buf.String()
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, declared %q", m.Name, got.Unit, m.Unit)
					}
					if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
					if !containsLine(out, m.Name, m.Unit) {
						t.Errorf("metric %s not printed with its unit %s", m.Name, m.Unit)
					}
				}
				if _, err := json.Marshal(res.summary()); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func containsLine(out, name, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// TestErrorJobIsFailedOperation checks that a sweep job whose RunFunc
// returns an error counts as one failed operation and leaves the others
// counted as passed.
func TestErrorJobIsFailedOperation(t *testing.T) {
	w, err := newSweep(tiny("scenario-sweep", false))
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.plans[0].Specs[3].Run = func(context.Context, int64) (runner.Result, error) {
		return runner.Result{}, errors.New("injected failure")
	}
	var ck checks
	w.op(nil, 0, 0, &ck)
	if ck.attempted != len(w.plans[0].Specs) || ck.failed != 1 {
		t.Fatalf("attempted %d failed %d, want %d and 1 (failures %v)",
			ck.attempted, ck.failed, len(w.plans[0].Specs), ck.failures)
	}
	if !strings.Contains(strings.Join(ck.failures, "\n"), "injected failure") {
		t.Errorf("failure reasons %v do not name the job's error", ck.failures)
	}
}

// TestDigestMismatchIsFailedOperation checks that a run whose model
// digest differs from the first run of its input fails.
func TestDigestMismatchIsFailedOperation(t *testing.T) {
	w, err := newFig6(tiny("fig6-serial", false), 0)
	if err != nil {
		t.Fatal(err)
	}
	var ck checks
	w.op(nil, 0, 0, &ck)
	w.digests[0]++
	w.op(nil, 0, 0, &ck)
	if ck.attempted != 2 || ck.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", ck.attempted, ck.failed)
	}
}

// TestConservation checks the packet accounting rule on hand-made
// counter totals.
func TestConservation(t *testing.T) {
	ok := counts{"model/data_pkts_sent": 10, "model/data_pkts_consumed": 7,
		"model/drops_threshold": 2, "model/drops_dequeue": 2,
		"model/ack_pkts_sent": 7, "model/ack_pkts_retired": 6}
	if err := conservation(ok); err != nil {
		t.Fatal(err)
	}
	lost := counts{}
	lost.add(ok)
	lost["model/ack_pkts_retired"]--
	if conservation(lost) == nil {
		t.Error("an ACK lost without a drop passed")
	}
	lost = counts{}
	lost.add(ok)
	lost["model/data_pkts_consumed"]--
	if conservation(lost) == nil {
		t.Error("a data packet lost without a drop passed")
	}
	lost = counts{}
	lost.add(ok)
	lost["model/ack_pkts_retired"] += 2
	lost["model/data_pkts_consumed"] -= 2
	if conservation(lost) == nil {
		t.Error("more ACKs retired than sent passed")
	}
}

// TestSpanSelfTime checks that self time subtracts the union of the
// children's intervals, counting overlapping children once.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pool", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "job", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "job", Start: 3, End: 6},
		{ID: 4, Parent: 1, Name: "put", Start: 8, End: 9},
	}
	got := spanTotals(spans)
	if p := got["pool"]; p.Count != 1 || p.TotalMs != 10 || p.SelfMs != 4 {
		t.Errorf("pool = %+v, want 1 span, 10 ms total, 4 ms self", p)
	}
	if j := got["job"]; j.Count != 2 || j.TotalMs != 6 || j.SelfMs != 6 {
		t.Errorf("job = %+v, want 2 spans, 6 ms total and self", j)
	}
}
