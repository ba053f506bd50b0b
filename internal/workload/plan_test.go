package workload

import (
	"math/rand"
	"testing"

	"abm/internal/cc"
	"abm/internal/metrics"
	"abm/internal/units"
)

// buildPair returns matching WebSearch+Incast generators over a fresh
// network, with PickCC/PickPrio wired to a shared RNG the way the
// experiment harness does.
func buildPair(t *testing.T, seed int64) (*WebSearch, *Incast, *metrics.Collector) {
	_, n := testNet(seed)
	col := &metrics.Collector{}
	shared := rand.New(rand.NewSource(seed + 1000))
	ws := &WebSearch{
		Net: n, Load: 0.4, Collect: col, Seed: seed + 1,
		PickCC: func(i int) (cc.Factory, uint8) {
			p := uint8(shared.Intn(3))
			return func() cc.Algorithm { return cc.NewDCTCP() }, p
		},
	}
	ic := &Incast{
		Net: n, RequestSize: 40 * units.Kilobyte, Fanout: 4, QueryRate: 2000,
		CC: func() cc.Algorithm { return cc.NewDCTCP() }, Collect: col, Seed: seed + 2,
		PickPrio: func() uint8 { return uint8(shared.Intn(3)) },
	}
	begin(t, ws, ic)
	return ws, ic, col
}

// TestPlanInStepsMatchesOneShot plans one schedule to the horizon in a
// single call and another in uneven steps (the Simulation API plans up
// to each Run deadline): every collector row's planning-time fields
// (class, priority, size, start time, ideal FCT, flow ID) and the
// generator counters must be identical — the streams, including the
// shared PickCC/PickPrio stream drawn in merged arrival order, continue
// draw-for-draw across calls.
func TestPlanInStepsMatchesOneShot(t *testing.T) {
	horizon := 20 * units.Millisecond

	ws, ic, oneCol := buildPair(t, 9)
	Plan(horizon, ws, ic)

	sws, sic, stepCol := buildPair(t, 9)
	for _, h := range []units.Time{0, 3 * units.Millisecond, 3 * units.Millisecond,
		11*units.Millisecond + 7, horizon} {
		Plan(h, sws, sic)
	}

	if sws.Started() != ws.Started() || sic.Queries() != ic.Queries() {
		t.Fatalf("stepped planning started %d flows / %d queries, one-shot %d / %d",
			sws.Started(), sic.Queries(), ws.Started(), ic.Queries())
	}
	if len(stepCol.Flows) != len(oneCol.Flows) {
		t.Fatalf("stepped planning recorded %d flows, one-shot %d", len(stepCol.Flows), len(oneCol.Flows))
	}
	if ws.Started() < 20 || ic.Queries() < 20 {
		t.Fatalf("too few arrivals for a meaningful check: %d flows, %d queries", ws.Started(), ic.Queries())
	}
	for i := range stepCol.Flows {
		s, o := stepCol.Flows[i], oneCol.Flows[i]
		if s != o {
			t.Fatalf("flow %d diverged:\nstepped  %+v\none-shot %+v", i, s, o)
		}
		if i > 0 && s.Start < stepCol.Flows[i-1].Start {
			t.Fatalf("flow %d planned out of arrival order", i)
		}
	}
}

// Stop ends planning: arrivals already planned stay, later ones never
// launch.
func TestStopEndsPlanning(t *testing.T) {
	ws, ic, col := buildPair(t, 3)
	Plan(5*units.Millisecond, ws, ic)
	planned := len(col.Flows)
	ws.Stop()
	ic.Stop()
	Plan(20*units.Millisecond, ws, ic)
	if planned == 0 || len(col.Flows) != planned {
		t.Fatalf("flows %d after Stop, %d before", len(col.Flows), planned)
	}
}
