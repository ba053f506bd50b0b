package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"abm/internal/obs"
	"abm/internal/runner"
	"abm/internal/scenario"
	"abm/internal/units"
)

// Grid describes a cross-product sweep of evaluation cells for
// sweepd serve: every combination of buffer-management scheme, congestion
// control, load, incast request size and alpha, replicated Reps times
// with per-replication seeds derived from the plan seed. It is the
// JSON schema of a plan file.
type Grid struct {
	// Name labels the sweep; it prefixes every job ID.
	Name string `json:"name"`
	// Scale is the fabric scale: small, medium or paper. Default small.
	Scale string `json:"scale"`
	// Seed is the plan seed replication seeds derive from. Default 1.
	Seed int64 `json:"seed"`
	// Reps is the number of seed replications per configuration.
	// Default 1.
	Reps int `json:"reps"`

	// Axes. Empty axes collapse to a single default point.
	BMs          []string  `json:"bms"`           // default ["ABM"]
	CCs          []string  `json:"ccs"`           // default ["cubic"]
	Loads        []float64 `json:"loads"`         // default [0.4]
	RequestFracs []float64 `json:"request_fracs"` // default [0.3]
	Alphas       []float64 `json:"alphas"`        // default [0] = scheme default (0.5)

	// Scalar knobs applied to every cell.
	QueuesPerPort int     `json:"queues_per_port,omitempty"`
	Workload      string  `json:"workload,omitempty"`
	Trimming      bool    `json:"trimming,omitempty"`
	DurationMS    float64 `json:"duration_ms,omitempty"`
	// Shards runs every cell on that many engine shards (see
	// Cell.Shards); 0 means one.
	Shards int `json:"shards,omitempty"`
	// TimeoutSec bounds each job's wall-clock seconds; 0 means none.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Obs enables telemetry on every job; with PerJob set the path
	// fields are directories holding one file per job.
	Obs obs.Options `json:"obs,omitempty"`

	// Scenario switches the grid to scenario mode: every job starts from
	// this scenario JSON file and the Vary axes mutate it by field path.
	// The cell axes above (BMs, CCs, ...) are ignored in this mode.
	Scenario string `json:"scenario,omitempty"`
	// Vary are the scenario-mode sweep axes, crossed in order. Axis
	// order is part of the job-ID/seed contract, exactly like the fixed
	// bm/cc/load/request/alpha order of cell mode.
	Vary []PathAxis `json:"vary,omitempty"`
}

// PathAxis is one scenario-mode sweep axis: a dotted scenario field
// path (see scenario.SetField) and the values it steps through.
type PathAxis struct {
	Path   string   `json:"path"`
	Values []string `json:"values"`
}

// normalized fills the documented defaults.
func (g Grid) normalized() Grid {
	if g.Name == "" {
		g.Name = "sweep"
	}
	if g.Scale == "" {
		g.Scale = "small"
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.Reps <= 0 {
		g.Reps = 1
	}
	if len(g.BMs) == 0 {
		g.BMs = []string{"ABM"}
	}
	if len(g.CCs) == 0 {
		g.CCs = []string{"cubic"}
	}
	if len(g.Loads) == 0 {
		g.Loads = []float64{0.4}
	}
	if len(g.RequestFracs) == 0 {
		g.RequestFracs = []float64{0.3}
	}
	if len(g.Alphas) == 0 {
		g.Alphas = []float64{0}
	}
	return g
}

// Jobs returns the number of jobs the grid expands to.
func (g Grid) Jobs() int {
	g = g.normalized()
	if g.Scenario != "" {
		n := g.Reps
		for _, axis := range g.Vary {
			n *= len(axis.Values)
		}
		return n
	}
	return len(g.BMs) * len(g.CCs) * len(g.Loads) * len(g.RequestFracs) * len(g.Alphas) * g.Reps
}

// Plan expands the grid into a runner plan: one job per configuration
// and replication, in a fixed axis order (bm, cc, load, request, alpha,
// rep — or the declared Vary order in scenario mode), so job indexes —
// and therefore derived seeds — are stable across runs and worker
// counts.
func (g Grid) Plan() (*runner.Plan, error) {
	g = g.normalized()
	if g.Scenario != "" {
		return g.scenarioPlan()
	}
	scale, err := ParseScale(g.Scale)
	if err != nil {
		return nil, err
	}
	timeout := time.Duration(g.TimeoutSec * float64(time.Second))
	plan := &runner.Plan{Name: g.Name, Seed: g.Seed}
	for _, bmName := range g.BMs {
		for _, ccName := range g.CCs {
			for _, load := range g.Loads {
				for _, frac := range g.RequestFracs {
					for _, alpha := range g.Alphas {
						cell := Cell{
							Scale: scale,
							BM:    bmName, Load: load, WSCC: ccName,
							RequestFrac:   frac,
							Alpha:         alpha,
							QueuesPerPort: g.QueuesPerPort,
							Workload:      g.Workload,
							Trimming:      g.Trimming,
							Shards:        g.Shards,
							Duration:      units.Time(g.DurationMS * float64(units.Millisecond)),
						}
						group := fmt.Sprintf("bm=%s,cc=%s,load=%g,req=%g,alpha=%g",
							bmName, ccName, load, frac, alpha)
						for rep := 0; rep < g.Reps; rep++ {
							id := fmt.Sprintf("%s/%04d-%s,rep=%d", g.Name, len(plan.Specs), group, rep)
							exec := cell
							if g.Obs.Active() {
								exec.Obs = g.Obs.ForJob(id)
							}
							plan.Add(runner.Spec{
								ID:         id,
								Experiment: g.Name,
								Group:      group,
								Timeout:    timeout,
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
					}
				}
			}
		}
	}
	return plan, nil
}

// scenarioPlan expands the Vary axes over the base scenario file into a
// runner plan. Every axis combination is validated up front (bad field
// paths or values fail the whole sweep before any job runs), and each
// job's record embeds the fully-resolved scenario it executed.
func (g Grid) scenarioPlan() (*runner.Plan, error) {
	base, err := scenario.Load(g.Scenario)
	if err != nil {
		return nil, err
	}
	for _, axis := range g.Vary {
		if axis.Path == "" || len(axis.Values) == 0 {
			return nil, fmt.Errorf("experiments: vary axis %q needs a path and at least one value", axis.Path)
		}
	}
	timeout := time.Duration(g.TimeoutSec * float64(time.Second))
	plan := &runner.Plan{Name: g.Name, Seed: g.Seed}

	// Walk the cross product in declared axis order, rightmost axis
	// fastest — the scenario-mode analogue of the fixed cell-axis order.
	choice := make([]int, len(g.Vary))
	for {
		sc := base.Clone()
		var parts []string
		for i, axis := range g.Vary {
			value := axis.Values[choice[i]]
			if err := scenario.SetField(&sc, axis.Path, value); err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			parts = append(parts, fmt.Sprintf("%s=%s", axis.Path, value))
		}
		if g.Shards >= 1 {
			sc.Shards = g.Shards
		}
		group := strings.Join(parts, ",")
		if group == "" {
			group = "scenario"
		}
		for rep := 0; rep < g.Reps; rep++ {
			id := fmt.Sprintf("%s/%04d-%s,rep=%d", g.Name, len(plan.Specs), group, rep)
			exec := sc.Clone()
			if g.Obs.Active() {
				exec.Obs = g.Obs.ForJob(id)
			}
			plan.Add(runner.Spec{
				ID:         id,
				Experiment: g.Name,
				Group:      group,
				Timeout:    timeout,
				Config:     sc, // telemetry flags stay out of the echo
				Run: func(ctx context.Context, seed int64) (runner.Result, error) {
					c := exec.Clone()
					c.Seed = seed
					res, _, err := scenario.Run(c)
					if err != nil {
						return runner.Result{}, err
					}
					return runnerResult(Result{
						Summary:          res.Summary,
						PerPrioP99Short:  res.PerPrioP99Short,
						Drops:            res.Drops,
						UnscheduledDrops: res.UnscheduledDrops,
						Events:           res.Events,
						Counters:         res.Counters,
						Hists:            res.Hists,
						Resolved:         res.Scenario,
					}), nil
				},
			})
		}
		// Advance the odometer; done when the leftmost axis wraps.
		i := len(choice) - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < len(g.Vary[i].Values) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return plan, nil
}
