package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"abm/internal/metrics"
	"abm/internal/obs"
)

// TestHybridOneShard runs the committed hybrid scenario at shards 0 and
// 1 — both one shard of the engine — and pins its demotions and their
// agreement with the counter view; asking for two shards is a Resolve
// error, never a panic.
func TestHybridOneShard(t *testing.T) {
	s, err := Load(filepath.Join("..", "..", "scenarios", "steady-longflows.json"))
	if err != nil {
		t.Fatal(err)
	}
	s.Obs = obs.Options{Counters: true}
	var ref []metrics.FlowRecord
	for _, shards := range []int{0, 1} {
		s.Shards = shards
		res, col, err := Run(s)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Hybrid == nil || res.Hybrid.Demotions != 16 {
			t.Fatalf("shards=%d: hybrid stats %+v, want 16 demotions", shards, res.Hybrid)
		}
		h, c := res.Hybrid, res.Counters
		if h.Demotions != c["model/hybrid_demotions"] || h.Promotions != c["model/hybrid_promotions"] ||
			h.Epochs != c["model/hybrid_epochs"] || h.FluidBytes != c["model/hybrid_fluid_bytes"] {
			t.Fatalf("shards=%d: hybrid stats %+v disagree with counters %v", shards, *h, c)
		}
		if res.Summary.Unfinished != 0 || len(col.Flows) != 16 {
			t.Fatalf("shards=%d: %d flows, %d unfinished", shards, len(col.Flows), res.Summary.Unfinished)
		}
		if shards == 0 {
			ref = col.Flows
		} else if !reflect.DeepEqual(col.Flows, ref) {
			t.Fatalf("shards=1 flow records differ from shards=0:\n%v\nwant\n%v", col.Flows, ref)
		}
	}
	s.Shards = 2
	if _, err := s.Resolve(); err == nil || !strings.Contains(err.Error(), "one shard") {
		t.Fatalf("hybrid at shards=2 resolved with err %v, want a one-shard error", err)
	}
	if _, _, err := Run(s); err == nil {
		t.Fatal("hybrid at shards=2 ran")
	}
}
