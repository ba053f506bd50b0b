package abm

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistriesExposed(t *testing.T) {
	if len(BMSchemes()) < 6 {
		t.Fatalf("BM schemes: %v", BMSchemes())
	}
	if len(CCAlgorithms()) < 6 {
		t.Fatalf("CC algorithms: %v", CCAlgorithms())
	}
	if len(FigureIDs()) != 13 {
		t.Fatalf("figures: %v", FigureIDs())
	}
}

func TestAnalyticFacade(t *testing.T) {
	b := ByteCount(1000)
	if got := ABMMaxAllocation(b, 1); got != 500 {
		t.Fatalf("Theorem 2 facade = %v", got)
	}
	if got := ABMMinGuarantee(b, 1, 2); got != 333 {
		t.Fatalf("Theorem 1 facade = %v", got)
	}
	if ABMDrainTimeBound(1_250_000, 1, 10*GigabitPerSec) != 500*Microsecond {
		t.Fatal("Theorem 3 facade broken")
	}
	thr := DTSteadyThreshold(1000, 1, []PriorityLoad{{Alpha: 1, Congested: 1}})
	if thr != 500 {
		t.Fatalf("Eq. 6 facade = %v", thr)
	}
	s := BurstScenario{
		B: 5 * Megabyte, PortRate: 10 * GigabitPerSec,
		Alpha: 0.5, AlphaBurst: 64,
		CongestedPorts: 8, QueuesPerPort: 2,
		BurstRate: 150 * GigabitPerSec,
	}
	if s.ABMBurstTolerance() <= s.DTBurstTolerance() {
		t.Fatal("burst tolerance facade: ABM must beat DT under load")
	}
}

func TestSimulationLifecycle(t *testing.T) {
	simn, err := NewSimulation(SimulationConfig{
		Seed: 1, Spines: 2, Leaves: 2, HostsPerLeaf: 4, BM: "ABM",
	})
	if err != nil {
		t.Fatal(err)
	}
	if simn.NumHosts() != 8 {
		t.Fatalf("hosts = %d", simn.NumHosts())
	}
	if simn.BaseRTT() != 80*Microsecond {
		t.Fatalf("base RTT = %v", simn.BaseRTT())
	}
	var fct Time
	if err := simn.StartFlow(0, 5, 50*Kilobyte, 0, "dctcp", func(d Time) { fct = d }); err != nil {
		t.Fatal(err)
	}
	simn.Run(100 * Millisecond)
	simn.Drain()
	if fct == 0 {
		t.Fatal("flow did not complete")
	}
	flows := simn.Flows()
	if len(flows) != 1 || !flows[0].Finished {
		t.Fatalf("flows = %+v", flows)
	}
	if flows[0].Slowdown() < 1 {
		t.Fatalf("slowdown = %v", flows[0].Slowdown())
	}
}

func TestSimulationWithWorkloads(t *testing.T) {
	simn, err := NewSimulation(SimulationConfig{
		Seed: 2, Spines: 2, Leaves: 2, HostsPerLeaf: 4, BM: "DT",
	})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := simn.AttachWebSearch(0.3, "cubic", 0)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := simn.AttachIncast(200*Kilobyte, 4, 500, "cubic", 0)
	if err != nil {
		t.Fatal(err)
	}
	simn.Run(20 * Millisecond)
	ws.Stop()
	ic.Stop()
	simn.Run(simn.Now() + 500*Millisecond)
	simn.Drain()
	sum := simn.Summarize()
	if sum.Flows == 0 {
		t.Fatal("workloads generated nothing")
	}
}

func TestSimulationRejectsBadNames(t *testing.T) {
	if _, err := NewSimulation(SimulationConfig{BM: "bogus", Spines: 1, Leaves: 1, HostsPerLeaf: 2}); err == nil {
		t.Fatal("expected BM error")
	}
	simn, err := NewSimulation(SimulationConfig{Spines: 1, Leaves: 2, HostsPerLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := simn.StartFlow(0, 1, 1000, 0, "bogus", nil); err == nil {
		t.Fatal("expected cc error")
	}
}

// TestSimulationRejectsBadInput: every caller mistake on the
// Simulation API is an error, never a panic, and leaves the fabric
// untouched.
func TestSimulationRejectsBadInput(t *testing.T) {
	simn, err := NewSimulation(SimulationConfig{Seed: 1, Spines: 2, Leaves: 2, HostsPerLeaf: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"flow to self", func() error { return simn.StartFlow(0, 0, 1000, 0, "dctcp", nil) }},
		{"dst out of range", func() error { return simn.StartFlow(0, 99, 1000, 0, "dctcp", nil) }},
		{"negative src", func() error { return simn.StartFlow(-1, 1, 1000, 0, "dctcp", nil) }},
		{"web search load 0", func() error { _, err := simn.AttachWebSearch(0, "cubic", 0); return err }},
		{"web search load 2", func() error { _, err := simn.AttachWebSearch(2, "cubic", 0); return err }},
		{"incast qps 0", func() error { _, err := simn.AttachIncast(200*Kilobyte, 4, 0, "cubic", 0); return err }},
		{"incast request 0", func() error { _, err := simn.AttachIncast(0, 4, 500, "cubic", 0); return err }},
		{"incast negative fanout", func() error { _, err := simn.AttachIncast(200*Kilobyte, -1, 500, "cubic", 0); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if err := tc.call(); err == nil {
				t.Fatal("accepted")
			}
		})
	}
	simn.Run(5 * Millisecond)
	simn.Drain()
	if n := len(simn.Flows()); n != 0 {
		t.Fatalf("rejected calls left %d flows", n)
	}
}

func TestRunFigureFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFigure("fig4", ScaleSmall, 1, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Fatal("fig4 output missing header")
	}
	if err := RunFigure("nope", ScaleSmall, 1, &buf); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunExperimentFacade(t *testing.T) {
	res, err := RunExperiment(Experiment{
		Scale: ScaleSmall, Seed: 5,
		BM: "ABM", Load: 0.2, WSCC: "dctcp",
		RequestFrac: 0.2,
		Duration:    5 * Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Flows == 0 {
		t.Fatal("no flows")
	}
}

func TestPercentileFacade(t *testing.T) {
	if Percentile([]float64{1, 2, 3}, 50) != 2 {
		t.Fatal("percentile facade broken")
	}
}

func TestRunExperimentDetailedAndTrace(t *testing.T) {
	res, col, err := RunExperimentDetailed(Experiment{
		Scale: ScaleSmall, Seed: 7,
		BM: "DT", Load: 0.2, WSCC: "reno",
		Duration: 5 * Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Flows != len(col.Flows) {
		t.Fatalf("summary flows %d != collector %d", res.Summary.Flows, len(col.Flows))
	}
	var buf bytes.Buffer
	if err := WriteFlowTrace(&buf, col.Flows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "websearch") {
		t.Fatal("trace missing flow rows")
	}
}
