package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"abm/internal/obs"
	"abm/internal/scenario"
	"abm/internal/units"
)

// obsCell is a medium-scale cell (4 leaves, so shards=4 is a genuine
// 4-way split) short enough for CI but busy enough to exercise drops,
// marks, retransmits and timeouts.
func obsCell() Cell {
	return Cell{Scale: ScaleMedium, Seed: 42, Duration: 2 * units.Millisecond,
		Load: 0.6, WSCC: "dctcp", RequestFrac: 0.5, BM: "ABM"}
}

// TestObsShardInvariance is the telemetry determinism golden test: the
// model counters and the exported model-kind NDJSON stream must be
// byte-identical at 1, 2 and 4 shards.
func TestObsShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shard sweep")
	}
	dir := t.TempDir()
	var refNDJSON []byte
	var refTotals map[string]int64
	for _, shards := range []int{1, 2, 4} {
		cell := obsCell()
		cell.Shards = shards
		path := filepath.Join(dir, "events.ndjson")
		cell.Obs = obs.Options{EventsFile: path, Filter: "model"}
		res, err := Run(cell)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		model := map[string]int64{}
		for k, v := range res.Counters {
			if strings.HasPrefix(k, "model/") {
				model[k] = v
			}
		}
		if shards == 1 {
			refNDJSON, refTotals = data, model
			if len(data) == 0 {
				t.Fatal("one-shard run exported no events")
			}
			if refTotals["model/data_pkts_sent"] == 0 || refTotals["model/admitted_pkts"] == 0 {
				t.Fatalf("one-shard run recorded no traffic: %v", refTotals)
			}
			continue
		}
		if !reflect.DeepEqual(model, refTotals) {
			t.Errorf("shards=%d model counters diverged:\n%v\nwant\n%v", shards, model, refTotals)
		}
		if !bytes.Equal(data, refNDJSON) {
			t.Errorf("shards=%d NDJSON diverged (%d bytes vs %d)", shards, len(data), len(refNDJSON))
		}
	}
}

// TestObsSamplingSubset checks that a sampled trace is a subset of the
// full trace — the hash selection must never invent lines — and that it
// is itself shard-count-invariant.
func TestObsSamplingSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shard sweep")
	}
	dir := t.TempDir()
	run := func(shards int, sample float64) map[string]bool {
		cell := obsCell()
		cell.Shards = shards
		path := filepath.Join(dir, "s.ndjson")
		cell.Obs = obs.Options{EventsFile: path, Filter: "model", Sample: sample}
		if _, err := Run(cell); err != nil {
			t.Fatalf("shards=%d sample=%g: %v", shards, sample, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := map[string]bool{}
		for _, l := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			lines[l] = true
		}
		return lines
	}
	full := run(1, 0)
	sampled := run(1, 0.2)
	if len(sampled) >= len(full) || len(sampled) == 0 {
		t.Fatalf("sampled %d lines of %d; expected a strict nonempty subset", len(sampled), len(full))
	}
	for l := range sampled {
		if !full[l] {
			t.Fatalf("sampled line not present in the full trace: %s", l)
		}
	}
	if sharded := run(2, 0.2); !reflect.DeepEqual(sharded, sampled) {
		t.Errorf("sampled trace differs across shard counts: %d vs %d lines", len(sharded), len(sampled))
	}
}

// TestPacketConservation pins the packet-conservation invariant on the
// counter view: every packet handed to a NIC is eventually dropped at a
// switch, consumed by a receiver, or retired at a sender — no packet is
// created or destroyed anywhere else. The busy cell covers admission and
// AQM drops; the partitioned linkfail-incast variant (both of leaf0's
// uplinks down from 2 ms to 4 ms) covers packets black-holed for lack of
// a route.
func TestPacketConservation(t *testing.T) {
	for _, shards := range []int{0, 4} {
		cell := obsCell()
		cell.Shards = shards
		cell.Obs = obs.Options{Counters: true}
		res, err := Run(cell)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		checkConservation(t, fmt.Sprintf("cell shards=%d", shards), res.Drops, res.Counters)
	}
	s, err := scenario.Load(filepath.Join("..", "..", "scenarios", "linkfail-incast.json"))
	if err != nil {
		t.Fatal(err)
	}
	s.Fabric.LinkFaults = []scenario.LinkFault{
		{Link: "leaf0-spine0", At: scenario.Duration(2 * units.Millisecond), RecoverAt: scenario.Duration(4 * units.Millisecond)},
		{Link: "leaf0-spine1", At: scenario.Duration(2 * units.Millisecond), RecoverAt: scenario.Duration(4 * units.Millisecond)},
	}
	s.Obs = obs.Options{Counters: true}
	for _, shards := range []int{1, 2} {
		s.Shards = shards
		res, _, err := scenario.Run(s)
		if err != nil {
			t.Fatalf("partition shards=%d: %v", shards, err)
		}
		if res.Counters["model/drops_noroute"] == 0 {
			t.Errorf("partition shards=%d: no black-holed packets counted (counters: %v)", shards, res.Counters)
		}
		checkConservation(t, fmt.Sprintf("partition shards=%d", shards), res.Drops, res.Counters)
	}
}

// checkConservation asserts sent == dropped + consumed + retired on one
// run's counter view, and that the view's drops match the run's own
// drop count.
func checkConservation(t *testing.T, name string, resDrops int64, c map[string]int64) {
	t.Helper()
	sent := c["model/data_pkts_sent"] + c["model/ack_pkts_sent"]
	drops := c["model/drops_threshold"] + c["model/drops_nobuffer"] +
		c["model/drops_aqm"] + c["model/drops_afd"] + c["model/drops_dequeue"] +
		c["model/drops_noroute"]
	accounted := drops + c["model/data_pkts_consumed"] + c["model/ack_pkts_retired"]
	if sent == 0 {
		t.Fatalf("%s: no packets sent", name)
	}
	if sent != accounted {
		t.Errorf("%s: conservation violated: sent %d != accounted %d (counters: %v)", name, sent, accounted, c)
	}
	// The overlapping tags stay within their parent counts.
	if c["model/retrans_pkts_sent"] > c["model/data_pkts_sent"] {
		t.Errorf("%s: retransmits exceed data sends", name)
	}
	if c["model/drops_unscheduled"] > drops {
		t.Errorf("%s: unscheduled drops exceed total drops", name)
	}
	if resDrops != drops {
		t.Errorf("%s: Result.Drops %d != counter-view drops %d", name, resDrops, drops)
	}
}
