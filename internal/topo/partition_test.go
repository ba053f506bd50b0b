package topo

import (
	"fmt"
	"math/rand"
	"testing"

	"abm/internal/cc"
	"abm/internal/sim"
	"abm/internal/units"
)

// checkPartition asserts the partition invariants on any graph: every
// switch maps to exactly one in-range shard, edge-switch blocks are
// contiguous with every shard owning at least one (rack-local traffic
// never crosses shards), and hosts inherit their edge group's shard.
func checkPartition(t *testing.T, label string, g *Graph, req int) {
	t.Helper()
	p := MakePartition(g, req)
	want := req
	if want > g.NumGroups() {
		want = g.NumGroups()
	}
	if want < 1 {
		want = 1
	}
	if p.Shards != want {
		t.Fatalf("%s: %d shards for %d edge groups (requested %d), want %d",
			label, p.Shards, g.NumGroups(), req, want)
	}
	if len(p.SwitchShard) != g.NumSwitches() {
		t.Fatalf("%s: partition maps %d switches, graph has %d",
			label, len(p.SwitchShard), g.NumSwitches())
	}
	edgeCount := make([]int, p.Shards)
	prev := 0
	for i, sh := range p.SwitchShard {
		if sh < 0 || sh >= p.Shards {
			t.Fatalf("%s: switch %d on shard %d of %d", label, i, sh, p.Shards)
		}
		if g.TierOf(i) != 0 {
			continue
		}
		if sh < prev {
			t.Fatalf("%s: edge blocks not contiguous at switch %d (%d after %d)", label, i, sh, prev)
		}
		prev = sh
		edgeCount[sh]++
	}
	for sh, c := range edgeCount {
		if c == 0 {
			t.Fatalf("%s: shard %d owns no edge switches", label, sh)
		}
	}
	// Host coverage: every host maps through its edge group to one shard.
	for h := 0; h < g.NumHosts(); h++ {
		if sh := p.SwitchShard[g.GroupOfHost(h)]; sh < 0 || sh >= p.Shards {
			t.Fatalf("%s: host %d unassigned", label, h)
		}
	}
}

// TestPartitionCoversEveryDevice is the partitioner property test, on
// random leaf–spine dimensions and on multi-tier fat trees.
func TestPartitionCoversEveryDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		leaves := 1 + rng.Intn(24)
		spines := 1 + rng.Intn(24)
		hostsPer := 1 + rng.Intn(16)
		req := 1 + rng.Intn(12)
		g := LeafSpine(spines, leaves, hostsPer)
		checkPartition(t, fmt.Sprintf("trial %d (%dx%dx%d req %d)", trial, spines, leaves, hostsPer, req), g, req)
	}
	for _, k := range []int{2, 4, 6, 8} {
		g := FatTree(k)
		for req := 1; req <= g.NumGroups()+2; req++ {
			checkPartition(t, fmt.Sprintf("fattree k=%d req %d", k, req), g, req)
		}
	}
}

// runFlows launches the same little flow mix on a network and returns
// the completion times, keyed by flow order.
func runFlows(n *Network) []units.Time {
	type launch struct{ src, dst int }
	mix := []launch{{0, 5}, {4, 1}, {2, 6}, {7, 3}, {1, 2}}
	fcts := make([]units.Time, len(mix))
	for i, m := range mix {
		i, m := i, m
		id := n.AllocFlowID()
		n.SimOfHost(m.src).At(0, func() {
			n.StartFlowWithID(id, m.src, m.dst, 50*units.Kilobyte, 0, cc.NewDCTCP(),
				func(now units.Time) { fcts[i] = now })
		})
	}
	if n.Par != nil {
		n.Par.RunUntil(20 * units.Millisecond)
		n.Stop()
		n.Par.Drain()
		n.Par.Close()
	} else {
		n.Sim.RunUntil(20 * units.Millisecond)
		n.Stop()
		n.Sim.Run()
	}
	return fcts
}

// TestShardedNetworkShardInvariance drives an identical flow mix
// through the engine at 1, 2, and 4 shards (on a 4-leaf fabric) and
// demands identical flow completion times: the canonical mailbox merge
// makes the run a property of the topology, not the partition.
func TestShardedNetworkShardInvariance(t *testing.T) {
	cfg := Config{
		NumSpines:    2,
		NumLeaves:    4,
		HostsPerLeaf: 2,
		LinkRate:     10 * units.GigabitPerSec,
		LinkDelay:    10 * units.Microsecond,
	}
	var ref []units.Time
	for _, shards := range []int{1, 2, 4} {
		p := sim.NewParallel(42, shards)
		got := runFlows(NewShardedNetwork(p, cfg, MakePartition(cfg.Graph(), shards)))
		if got[0] == 0 {
			t.Fatal("flows did not complete")
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("shards=%d: flow %d FCT %v, 1-shard engine %v", shards, i, got[i], ref[i])
			}
		}
	}
}

// TestShardedSingleFlowMatchesSerial checks the engine against the
// direct-link reference build (NewNetwork on one simulator) on a lone
// flow. With no competing traffic there are no same-picosecond event
// ties, so the two builds must agree to the picosecond (contended runs
// may reorder exact ties; the engine's own output is tie-canonical and
// shard-invariant instead).
func TestShardedSingleFlowMatchesSerial(t *testing.T) {
	cfg := Config{
		NumSpines:    2,
		NumLeaves:    4,
		HostsPerLeaf: 2,
		LinkRate:     10 * units.GigabitPerSec,
		LinkDelay:    10 * units.Microsecond,
	}
	runOne := func(n *Network) units.Time {
		var fct units.Time
		id := n.AllocFlowID()
		n.SimOfHost(0).At(0, func() {
			n.StartFlowWithID(id, 0, 5, 200*units.Kilobyte, 0, cc.NewDCTCP(),
				func(now units.Time) { fct = now })
		})
		if n.Par != nil {
			n.Par.RunUntil(50 * units.Millisecond)
			n.Stop()
			n.Par.Drain()
			n.Par.Close()
		} else {
			n.Sim.RunUntil(50 * units.Millisecond)
			n.Stop()
			n.Sim.Run()
		}
		return fct
	}
	serial := runOne(NewNetwork(sim.New(42), cfg))
	if serial == 0 {
		t.Fatal("serial flow did not complete")
	}
	for _, shards := range []int{2, 4} {
		p := sim.NewParallel(42, shards)
		got := runOne(NewShardedNetwork(p, cfg, MakePartition(cfg.Graph(), shards)))
		if got != serial {
			t.Fatalf("shards=%d: FCT %v, serial %v", shards, got, serial)
		}
	}
}
