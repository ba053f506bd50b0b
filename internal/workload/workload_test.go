package workload

import (
	"math"
	"testing"

	"abm/internal/cc"
	"abm/internal/metrics"
	"abm/internal/sim"
	"abm/internal/topo"
	"abm/internal/units"
)

// testNet builds a 2x2x4 fabric on a one-shard engine.
func testNet(seed int64) (*sim.Parallel, *topo.Network) {
	p := sim.NewParallel(seed, 1)
	cfg := topo.Config{
		NumSpines:    2,
		NumLeaves:    2,
		HostsPerLeaf: 4,
		LinkRate:     10 * units.GigabitPerSec,
		LinkDelay:    10 * units.Microsecond,
	}
	return p, topo.NewShardedNetwork(p, cfg, topo.MakePartition(cfg.Graph(), 1))
}

// begin starts every generator's clock at time zero.
func begin(t *testing.T, gens ...interface{ Begin(units.Time) error }) {
	t.Helper()
	for _, g := range gens {
		if err := g.Begin(0); err != nil {
			t.Fatal(err)
		}
	}
}

// runTo plans the generators' arrivals up to horizon and runs there.
func runTo(p *sim.Parallel, horizon units.Time, gens ...Generator) {
	Plan(horizon, gens...)
	p.RunUntil(horizon)
}

func TestWebSearchOfferedLoad(t *testing.T) {
	s, n := testNet(5)
	col := &metrics.Collector{}
	w := &WebSearch{Net: n, Load: 0.4, CC: func() cc.Algorithm { return cc.NewDCTCP() }, Collect: col}
	begin(t, w)
	dur := 100 * units.Millisecond
	runTo(s, dur, w)
	n.Stop()

	// Offered inter-rack bytes / time should be ~40% of the bisection
	// capacity (2 leaves x 2 spines x 10G = 40 Gb/s), scaled by the
	// inter-rack fraction of uniform traffic (8/15).
	var offered units.ByteCount
	for _, f := range col.Flows {
		offered += f.Size
	}
	bisection := float64(n.Cfg.LinkRate) * 4
	interRackFrac := 8.0 / 15
	gotLoad := float64(offered.Bits()) * interRackFrac / dur.Seconds() / bisection
	// Heavy-tailed sizes make short-run load noisy; accept a wide band.
	if gotLoad < 0.15 || gotLoad > 0.8 {
		t.Fatalf("offered load = %.3f, want ~0.4", gotLoad)
	}
	if w.Started() != len(col.Flows) {
		t.Fatalf("started %d but recorded %d", w.Started(), len(col.Flows))
	}
	if w.Started() < 10 {
		t.Fatalf("too few flows: %d", w.Started())
	}
}

func TestWebSearchFlowsComplete(t *testing.T) {
	s, n := testNet(6)
	col := &metrics.Collector{}
	w := &WebSearch{Net: n, Load: 0.2, CC: func() cc.Algorithm { return cc.NewDCTCP() }, Collect: col}
	begin(t, w)
	runTo(s, 50*units.Millisecond, w)
	s.RunUntil(2 * units.Second) // drain
	n.Stop()
	if col.FinishedCount() == 0 {
		t.Fatal("no flows finished")
	}
	for _, f := range col.Flows {
		if f.Finished && f.Slowdown() < 0.999 {
			t.Fatalf("flow %d slowdown %.3f below 1 (ideal FCT too large?)", f.ID, f.Slowdown())
		}
	}
}

func TestWebSearchValidation(t *testing.T) {
	_, n := testNet(1)
	defer n.Stop()
	for _, w := range []*WebSearch{
		{Net: n, Load: 0},
		{Net: n, Load: 1.5, CC: func() cc.Algorithm { return cc.NewReno() }},
		{Net: n, Load: 0.4}, // no CC
	} {
		if err := w.Begin(0); err == nil {
			t.Errorf("expected an error for %+v", w)
		}
	}
}

func TestWebSearchPickCC(t *testing.T) {
	s, n := testNet(7)
	col := &metrics.Collector{}
	w := &WebSearch{
		Net: n, Load: 0.3, Collect: col,
		PickCC: func(i int) (cc.Factory, uint8) {
			if i%2 == 0 {
				return func() cc.Algorithm { return cc.NewCubic() }, 0
			}
			return func() cc.Algorithm { return cc.NewDCTCP() }, 1
		},
	}
	begin(t, w)
	runTo(s, 30*units.Millisecond, w)
	n.Stop()
	var p0, p1 int
	for _, f := range col.Flows {
		if f.Prio == 0 {
			p0++
		} else {
			p1++
		}
	}
	if p0 == 0 || p1 == 0 {
		t.Fatalf("PickCC priorities not both used: %d/%d", p0, p1)
	}
}

func TestIncastFanInDifferentRack(t *testing.T) {
	s, n := testNet(8)
	col := &metrics.Collector{}
	ic := &Incast{
		Net:         n,
		RequestSize: 100 * units.Kilobyte,
		Fanout:      4,
		QueryRate:   200,
		CC:          func() cc.Algorithm { return cc.NewReno() },
		Collect:     col,
	}
	begin(t, ic)
	runTo(s, 50*units.Millisecond, ic)
	s.RunUntil(2 * units.Second)
	n.Stop()
	if ic.Queries() == 0 {
		t.Fatal("no queries issued")
	}
	wantFlows := ic.Queries() * 4
	if len(col.Flows) != wantFlows {
		t.Fatalf("flows = %d, want %d (queries * fanout)", len(col.Flows), wantFlows)
	}
	// Per-flow size = request/fanout.
	for _, f := range col.Flows {
		if f.Size != 25*units.Kilobyte {
			t.Fatalf("flow size %v, want 25KB", f.Size)
		}
		if f.Class != metrics.ClassIncast {
			t.Fatal("class not incast")
		}
	}
	if col.FinishedCount() != wantFlows {
		t.Fatalf("finished %d/%d", col.FinishedCount(), wantFlows)
	}
}

func TestIncastFanoutCappedByCandidates(t *testing.T) {
	s, n := testNet(9)
	ic := &Incast{
		Net:         n,
		RequestSize: 40 * units.Kilobyte,
		Fanout:      100, // more than hosts in other racks (4)
		QueryRate:   100,
		CC:          func() cc.Algorithm { return cc.NewReno() },
		Collect:     &metrics.Collector{},
	}
	begin(t, ic)
	runTo(s, 30*units.Millisecond, ic)
	s.RunUntil(time500ms())
	n.Stop()
	if ic.Queries() == 0 {
		t.Fatal("no queries")
	}
	perQuery := float64(len(ic.Collect.Flows)) / float64(ic.Queries())
	if math.Abs(perQuery-4) > 0.001 {
		t.Fatalf("flows per query = %.2f, want 4 (capped)", perQuery)
	}
}

func time500ms() units.Time { return 500 * units.Millisecond }

func TestIncastValidation(t *testing.T) {
	_, n := testNet(1)
	defer n.Stop()
	reno := func() cc.Algorithm { return cc.NewReno() }
	for _, ic := range []*Incast{
		{Net: n, Fanout: 4, QueryRate: 1, CC: reno},                     // no size
		{Net: n, RequestSize: 1000, Fanout: 4, CC: reno},                // no rate
		{Net: n, RequestSize: 1000, Fanout: 4, QueryRate: 1},            // no cc
		{Net: n, RequestSize: 1000, Fanout: -1, QueryRate: 1, CC: reno}, // negative fanout
	} {
		if err := ic.Begin(0); err == nil {
			t.Errorf("expected an error for %+v", ic)
		}
	}
}

func TestBufferSampler(t *testing.T) {
	s, n := testNet(10)
	col := &metrics.Collector{}
	bs := &BufferSampler{Net: n, Collect: col}
	bs.StartBarrier(units.Millisecond)
	w := &WebSearch{Net: n, Load: 0.5, CC: func() cc.Algorithm { return cc.NewCubic() }, Collect: col}
	begin(t, w)
	runTo(s, 20*units.Millisecond, w)
	bs.Stop()
	n.Stop()
	if len(col.BufferSamples) < 15 {
		t.Fatalf("samples = %d, want ~20", len(col.BufferSamples))
	}
	for _, v := range col.BufferSamples {
		if v < 0 || v > 1.2 {
			t.Fatalf("occupancy fraction %v out of range", v)
		}
	}
}

func TestIncastPickPrio(t *testing.T) {
	s, n := testNet(12)
	col := &metrics.Collector{}
	next := uint8(0)
	ic := &Incast{
		Net:         n,
		RequestSize: 40 * units.Kilobyte,
		Fanout:      2,
		QueryRate:   500,
		CC:          func() cc.Algorithm { return cc.NewReno() },
		Collect:     col,
		PickPrio:    func() uint8 { next = (next + 1) % 2; return next },
	}
	begin(t, ic)
	runTo(s, 20*units.Millisecond, ic)
	n.Stop()
	var p0, p1 int
	for _, f := range col.Flows {
		if f.Prio == 0 {
			p0++
		} else {
			p1++
		}
	}
	if p0 == 0 || p1 == 0 {
		t.Fatalf("PickPrio not applied: %d/%d", p0, p1)
	}
}

func TestWorkloadSeedIsolation(t *testing.T) {
	// Two runs with the same workload seed but different fabric seeds
	// must generate identical flow sequences.
	sizes := func(simSeed int64) []units.ByteCount {
		s, n := testNet(simSeed)
		col := &metrics.Collector{}
		w := &WebSearch{Net: n, Load: 0.3, CC: func() cc.Algorithm { return cc.NewReno() },
			Collect: col, Seed: 777}
		begin(t, w)
		runTo(s, 10*units.Millisecond, w)
		n.Stop()
		out := make([]units.ByteCount, len(col.Flows))
		for i, f := range col.Flows {
			out[i] = f.Size
		}
		return out
	}
	a, b := sizes(1), sizes(99)
	if len(a) != len(b) {
		t.Fatalf("flow counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
