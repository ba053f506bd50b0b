package abm

import (
	"testing"

	"abm/internal/experiments"
	"abm/internal/units"
)

// allocsForCell runs the cell a few times and returns the mean
// allocations per run (setup + simulation; the cell is small enough
// that both matter).
func allocsForCell(t *testing.T, cell experiments.Cell) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		if _, err := experiments.Run(cell); err != nil {
			t.Fatal(err)
		}
	})
}

// TestParallelAllocParity pins the engine's sharding overhead in
// allocations: a shards=4 run of the Fig 6 parallel benchmark cell must
// allocate within 10% (plus a small constant for construction: workers,
// channels, per-shard packet pools) of the one-shard run of the same
// cell. This is the regression guard for per-window churn — reused
// mailbox buffers and by-value window requests mean steady-state
// windows allocate nothing, so dispatching every window to four workers
// costs no more than construction distance.
func TestParallelAllocParity(t *testing.T) {
	cell := experiments.Cell{
		Scale: experiments.ScaleMedium, Seed: 42,
		BM: "ABM", Load: 0.4, WSCC: "cubic", RequestFrac: 0.3,
		Duration: 2 * units.Millisecond,
	}
	one := allocsForCell(t, cell)
	sharded := cell
	sharded.Shards = 4
	four := allocsForCell(t, sharded)

	limit := one*1.10 + 500
	if four > limit {
		t.Errorf("shards=4 allocates %.0f/run vs one shard %.0f/run (limit %.0f): per-window churn regressed",
			four, one, limit)
	}
	t.Logf("one shard %.0f allocs/run, shards=4 %.0f allocs/run", one, four)
}
