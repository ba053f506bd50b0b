package hybrid

// White-box edge cases: the promotion triggers that guard the fluid
// approximation's validity. Each test drives a real (tiny) fabric to a
// genuine demotion, then forces one trigger and checks the flow is back
// in packet mode at the right moment.

import (
	"testing"

	"abm/internal/cc"
	"abm/internal/sim"
	"abm/internal/topo"
	"abm/internal/units"
)

// edgeNet is a one-spine two-leaf fabric on a one-shard engine: every
// cross-leaf flow shares the single uplink/downlink pair, so
// port-sharing triggers are easy to provoke.
func edgeNet(seed int64) (*sim.Parallel, *topo.Network, *Controller) {
	p := sim.NewParallel(seed, 1)
	cfg := topo.Config{
		NumSpines:    1,
		NumLeaves:    2,
		HostsPerLeaf: 2,
		LinkRate:     10 * units.GigabitPerSec,
		LinkDelay:    10 * units.Microsecond,
	}
	n := topo.NewShardedNetwork(p, cfg, topo.MakePartition(cfg.Graph(), 1))
	c := New(p.Shard(0), n, Config{})
	c.Start()
	return p, n, c
}

// runToDemotion steps the simulation until the controller has demoted
// at least one flow (it may already have been promoted again by the
// time a poll sees it — check c.flows for current residency).
func runToDemotion(t *testing.T, s *sim.Parallel, c *Controller) units.Time {
	t.Helper()
	deadline := 20 * units.Millisecond
	for step := units.Time(0); step < deadline; step += 20 * units.Microsecond {
		s.RunUntil(step)
		if c.stats.Demotions >= 1 {
			return s.Now()
		}
	}
	t.Fatalf("flow never demoted within %v (candidates %d)", deadline, len(c.cands))
	return 0
}

// A burst landing mid-epoch on a shared port must promote the fluid
// flow at flow-start time — before the burst's first packet can race a
// flow the packet engine no longer simulates — not at the next epoch
// boundary.
func TestBurstMidEpochPromotes(t *testing.T) {
	s, n, c := edgeNet(7)
	defer n.Stop()
	s.Shard(0).At(0, func() {
		n.StartFlow(0, 2, 20*units.Megabyte, 0, cc.NewSwift(), nil)
	})
	at := runToDemotion(t, s, c)
	f := c.flows[0]

	// Land the burst strictly between two epoch ticks.
	burstAt := at + c.cfg.EpochDt/2
	s.Shard(0).At(burstAt, func() {
		n.StartFlow(1, 3, 100*units.Kilobyte, 0, cc.NewSwift(), nil)
	})
	s.RunUntil(burstAt + 1)

	if got := c.FluidFlows(); got != 0 {
		t.Fatalf("fluid flows after mid-epoch burst = %d, want 0", got)
	}
	if c.stats.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", c.stats.Promotions)
	}
	if f.sn.Fluid() {
		t.Error("sender still marked fluid after promotion")
	}
	if f.sn.SndUna() < f.base {
		t.Errorf("receiver credit lost: sndUna %d < demotion base %d", f.sn.SndUna(), f.base)
	}
}

// A fluid queue crossing the guard band during integration must promote
// the flows feeding it at the next epoch.
func TestGuardBandCrossingPromotes(t *testing.T) {
	s, n, c := edgeNet(9)
	defer n.Stop()
	s.Shard(0).At(0, func() {
		n.StartFlow(0, 2, 20*units.Megabyte, 0, cc.NewSwift(), nil)
	})
	at := runToDemotion(t, s, c)
	f := c.flows[0]

	// One quiet epoch first: the flow must stay fluid on its own.
	s.RunUntil(at + 2*c.cfg.EpochDt)
	if got := c.FluidFlows(); got != 1 {
		t.Fatalf("fluid flows after quiet epoch = %d, want 1", got)
	}

	// Force the integrator far past any admission threshold.
	f.qss[0].fq.Len = 10 * 1024 * 1024
	s.RunUntil(s.Now() + 2*c.cfg.EpochDt)

	if got := c.FluidFlows(); got != 0 {
		t.Fatalf("fluid flows after guard-band crossing = %d, want 0", got)
	}
	if c.stats.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", c.stats.Promotions)
	}
}

// A flow whose fluid trajectory nears its end must be promoted with
// enough runway that the tail — and the FCT-stamping completion — plays
// out packet-level, with every byte accounted for exactly once.
func TestCompletionInPacketMode(t *testing.T) {
	s, n, c := edgeNet(11)
	defer n.Stop()
	size := 8 * units.Megabyte
	var fct units.Time
	s.Shard(0).At(0, func() {
		n.StartFlow(0, 2, size, 0, cc.NewSwift(), func(now units.Time) { fct = now })
	})
	runToDemotion(t, s, c)
	sn := n.Hosts[0].Sender(1)

	s.RunUntil(50 * units.Millisecond)
	if !sn.Finished() {
		t.Fatalf("flow not finished; fluid=%v sndUna=%d of %d", sn.Fluid(), sn.SndUna(), size)
	}
	if fct == 0 {
		t.Fatal("completion callback never fired")
	}
	if got := c.FluidFlows(); got != 0 {
		t.Fatalf("fluid flows after completion = %d, want 0", got)
	}
	st := c.Stats()
	if st.Demotions < 1 || st.Promotions < st.Demotions {
		t.Fatalf("demotions %d / promotions %d: completion must follow a promotion", st.Demotions, st.Promotions)
	}
	if st.FluidBytes <= 0 || st.FluidBytes >= int64(size) {
		t.Fatalf("fluid bytes %d outside (0, %d): tail must be packet-level", st.FluidBytes, size)
	}
	if sn.SndUna() != int64(size) {
		t.Fatalf("sndUna %d != size %d after completion", sn.SndUna(), size)
	}
}

// Cohort demotion is all-or-none: while one of two candidates is still
// unsteady, neither may be demoted.
func TestCohortHoldsBackUnsteady(t *testing.T) {
	s, n, c := edgeNet(13)
	defer n.Stop()
	s.Shard(0).At(0, func() {
		n.StartFlow(0, 2, 20*units.Megabyte, 0, cc.NewSwift(), nil)
	})
	// The second large flow arrives much later: while it climbs toward
	// steady state, the first must not be demoted without it.
	late := 5 * units.Millisecond
	s.Shard(0).At(late, func() {
		n.StartFlow(1, 3, 20*units.Megabyte, 0, cc.NewSwift(), nil)
	})
	s.RunUntil(late + 100*units.Microsecond)
	if got := c.FluidFlows(); got != 0 {
		t.Fatalf("fluid flows right after second arrival = %d, want 0 (all-or-none)", got)
	}
	if len(c.cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(c.cands))
	}
	// Eventually both settle and the whole cohort goes together.
	for step := s.Now(); step < 30*units.Millisecond; step += 100 * units.Microsecond {
		s.RunUntil(step)
		if nf := c.FluidFlows(); nf == 1 {
			t.Fatalf("partial cohort demotion: 1 fluid flow with %d candidates left", len(c.cands))
		} else if nf == 2 {
			return
		}
	}
	t.Fatal("cohort never demoted together")
}
