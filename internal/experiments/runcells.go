package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"abm/internal/obs"
	"abm/internal/runner"
	"abm/internal/scenario"
)

// RunOptions configures how a figure's cells are executed on the
// runner pool. The zero value (or a nil pointer) runs cells in parallel
// across all CPUs with no timeout, no retries and no persistence —
// the default for RunFigure.
type RunOptions struct {
	// Workers is the cell-level parallelism; <=0 means NumCPU.
	Workers int
	// Shards, when >=1, runs every cell on that many engine shards
	// (see Cell.Shards); 0 keeps each cell's own setting. The pool caps
	// Workers so that shards x workers stays within GOMAXPROCS.
	Shards int
	// Timeout bounds each cell's wall-clock time; 0 means none.
	Timeout time.Duration
	// Retries re-runs cells that fail with an error.
	Retries int
	// Store, when non-nil, persists one record per cell and lets
	// completed cells be skipped when the same figure re-runs at the
	// same seed and configuration.
	Store *runner.Store
	// Progress, when non-nil, receives live progress/ETA lines.
	Progress io.Writer
	// Obs enables telemetry on every cell. With PerJob set (the flag
	// surface's default for figures), the path fields are directories
	// and each job writes its own files, named by its sanitized ID.
	Obs obs.Options
	// Fabric, when non-nil, overlays an explicit fabric shape on every
	// cell (see Cell.Fabric) — how "figures -scenario" reruns a figure's
	// axes on a fabric loaded from a scenario file.
	Fabric *scenario.Fabric
}

// pool builds the runner pool an options value describes.
func (o *RunOptions) pool() *runner.Pool {
	if o == nil {
		o = &RunOptions{}
	}
	p := &runner.Pool{
		Workers:   o.Workers,
		JobShards: o.Shards,
		Timeout:   o.Timeout,
		Retries:   o.Retries,
		Progress:  o.Progress,
	}
	// Pool.Store is an interface: assigning a nil *runner.Store would
	// make it non-nil and turn persistence on with no store behind it.
	if o.Store != nil {
		p.Store = o.Store
	}
	return p
}

// cellJob is one labeled cell of a figure's grid.
type cellJob struct {
	label string
	cell  Cell
}

// runCells executes a figure's cells on the runner pool and returns
// their results in input order. Cells keep their explicit seeds (a
// figure's TSV is a pure function of the figure seed), run in parallel,
// and each lands as one record in the options' store when set. A
// cell that fails — including one that panics — fails the figure with
// its job ID attached, after the remaining cells finish.
func runCells(o *RunOptions, experiment string, jobs []cellJob) ([]Result, error) {
	plan := &runner.Plan{Name: experiment}
	for i, job := range jobs {
		cell := job.cell
		if o != nil && o.Shards >= 1 {
			cell.Shards = o.Shards
		}
		if o != nil && o.Fabric != nil {
			cell.Fabric = o.Fabric
		}
		id := fmt.Sprintf("%s/%03d-%s", experiment, i, job.label)
		exec := cell
		if o != nil && o.Obs.Active() {
			exec.Obs = o.Obs.ForJob(id)
		}
		plan.Add(runner.Spec{
			ID:         id,
			Experiment: experiment,
			Group:      job.label,
			Seed:       cell.Seed,
			Config:     cell, // telemetry stays out of the echo
			Run: func(ctx context.Context, seed int64) (runner.Result, error) {
				c := exec
				c.Seed = seed
				res, err := Run(c)
				if err != nil {
					return runner.Result{}, err
				}
				return runnerResult(res), nil
			},
		})
	}
	records, err := o.pool().Run(context.Background(), plan)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(records))
	for i, rec := range records {
		if !rec.OK() {
			return nil, fmt.Errorf("experiments: %s: %s (%s)", rec.ID, rec.Error, rec.Status)
		}
		results[i] = resultFromRecord(rec)
		results[i].Cell = jobs[i].cell
	}
	return results, nil
}

// perPrioKey names a per-priority p99 short-flow metric in a record's
// Extra map.
func perPrioKey(prio uint8) string { return fmt.Sprintf("p99_short_prio%d", prio) }

// runnerResult converts a cell result into the runner's record payload.
func runnerResult(res Result) runner.Result {
	out := runner.Result{
		Summary:          res.Summary,
		Events:           res.Events,
		Drops:            res.Drops,
		UnscheduledDrops: res.UnscheduledDrops,
		Counters:         res.Counters,
		Hists:            res.Hists,
		Scenario:         res.Resolved,
	}
	if len(res.PerPrioP99Short) > 0 {
		out.Extra = make(map[string]float64, len(res.PerPrioP99Short))
		for prio, v := range res.PerPrioP99Short {
			out.Extra[perPrioKey(prio)] = v
		}
	}
	return out
}

// resultFromRecord reverses runnerResult, so cached records served from
// a store render identically to freshly computed ones.
func resultFromRecord(rec runner.Record) Result {
	res := Result{
		Summary:          rec.Result.Summary,
		Events:           rec.Result.Events,
		Drops:            rec.Result.Drops,
		UnscheduledDrops: rec.Result.UnscheduledDrops,
		Counters:         rec.Result.Counters,
		Hists:            rec.Result.Hists,
	}
	for key, v := range rec.Result.Extra {
		var prio uint8
		if _, err := fmt.Sscanf(key, "p99_short_prio%d", &prio); err == nil {
			if res.PerPrioP99Short == nil {
				res.PerPrioP99Short = make(map[uint8]float64)
			}
			res.PerPrioP99Short[prio] = v
		}
	}
	return res
}
