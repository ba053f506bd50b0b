// Package experiments defines one runnable configuration per figure of
// the paper's evaluation (§4). A Cell is a point on one figure's axes;
// it compiles to a declarative scenario.Scenario (Cell.Scenario) and the
// scenario layer builds the fabric, attaches workloads, runs to the
// deadline, drains and summarizes. The cmd/figures binary and the
// repository's benchmarks are thin wrappers over this package.
package experiments

import (
	"fmt"

	"abm/internal/metrics"
	"abm/internal/obs"
	"abm/internal/obs/hist"
	"abm/internal/scenario"
	"abm/internal/units"
)

// Scale selects the fabric size. The paper runs 8 spines x 8 leaves x 32
// hosts; smaller scales preserve the 4:1 oversubscription and the
// qualitative results at a fraction of the event count.
type Scale int

// Scales.
const (
	// ScaleSmall: 2x2x8 = 16 hosts, ~25ms of traffic. Used by benches.
	ScaleSmall Scale = iota
	// ScaleMedium: 4x4x16 = 64 hosts, ~50ms.
	ScaleMedium
	// ScalePaper: the full 8x8x32 = 256 hosts, 200ms. Slow; CLI only.
	ScalePaper
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScalePaper:
		return "paper"
	default:
		return "unknown"
	}
}

// ParseScale resolves a scale name.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "paper":
		return ScalePaper, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q", name)
	}
}

// fabric returns the topology dimensions and run durations for a scale.
func (s Scale) fabric() (spines, leaves, hostsPerLeaf int, duration units.Time) {
	switch s {
	case ScaleMedium:
		return 4, 4, 16, 50 * units.Millisecond
	case ScalePaper:
		return 8, 8, 32, 200 * units.Millisecond
	default:
		return 2, 2, 8, 25 * units.Millisecond
	}
}

// Cell is one experiment configuration: a point on one figure's axes.
type Cell struct {
	Scale Scale
	Seed  int64

	// Shards partitions the fabric across min(max(N, 1), NumLeaves)
	// shards of the parallel engine; 0 (default) means one shard.
	// Output is identical at every shard count (the canonical barrier
	// merge is partition-invariant).
	Shards int

	// Fabric overrides the Scale-derived fabric shape (dimensions, link
	// rates, delay) with an explicit spec — how a figure sweep runs on a
	// fabric loaded from a scenario file. Scale still picks the duration.
	Fabric *scenario.Fabric

	BM             string     // bm policy name (bm.Names)
	UpdateInterval units.Time // for ABM-approx, in absolute time

	// Web-search workload.
	Load   float64
	WSCC   string // cc.NewFactory name
	WSPrio uint8

	// Incast workload; RequestFrac <= 0 disables it.
	RequestFrac float64 // request size as a fraction of the buffer (§4.1)
	IncastCC    string  // defaults to WSCC
	IncastPrio  uint8
	IncastLoad  float64 // fraction of aggregate bandwidth offered as incast, default 0.04
	Fanout      int     // default 8

	QueuesPerPort int  // default 1
	RandomPrio    bool // spread flows across queues uniformly (fig10/fig12)

	// Scheduler selects the per-port scheduler: "rr" (default), "dwrr",
	// or "strict".
	Scheduler string

	// Workload selects the background flow-size distribution:
	// "websearch" (default) or "datamining".
	Workload string

	// Trimming enables the cut-payload AQM (Figure 1's trimming-based
	// family): above the trim threshold, payloads are removed and
	// headers still delivered, converting timeout losses into immediate
	// duplicate-ACK signals. Incompatible with DCTCP cells.
	Trimming bool

	// BufferKBPerPortGbps overrides the Trident2 default of 9.6 (§4.3).
	BufferKBPerPortGbps float64

	// MixedCC assigns web-search flows alternately to the given
	// algorithm/priority pairs (fig8); overrides WSCC.
	MixedCC []CCAssignment

	// Duration overrides the scale's default traffic duration.
	Duration units.Time

	// Ablation knobs (DESIGN.md §8). Zero values select the defaults the
	// figures use.
	Alpha                 float64    // per-priority alpha, default 0.5
	DrainRateMeasured     bool       // measured estimator instead of scheduler share
	CongestedFactor       float64    // congestion detection factor, default 0.9
	HeadroomFrac          float64    // headroom fraction; <0 disables, 0 selects scheme default
	AlphaUnscheduled      float64    // default 64
	StatsIntervalOverride units.Time // n_p / mu refresh period, default one base RTT

	// Obs selects the run's telemetry (DESIGN.md §4e); the zero value
	// disables it entirely.
	Obs obs.Options
}

// CCAssignment binds a congestion-control algorithm to a priority.
type CCAssignment struct {
	CC   string
	Prio uint8
}

// Scenario compiles the cell to the declarative spec the scenario layer
// executes. The result is unresolved: Cell zero values map to Scenario
// zero values and scenario.Resolve supplies the shared defaults.
func (c Cell) Scenario() scenario.Scenario {
	spines, leaves, hostsPerLeaf, duration := c.Scale.fabric()
	if c.Duration > 0 {
		duration = c.Duration
	}
	sc := scenario.Scenario{
		Seed:     c.Seed,
		Shards:   c.Shards,
		Duration: scenario.Duration(duration),
		Fabric: scenario.Fabric{
			Spines:       spines,
			Leaves:       leaves,
			HostsPerLeaf: hostsPerLeaf,
		},
		Buffer: scenario.Buffer{
			KBPerPortPerGbps: c.BufferKBPerPortGbps,
			QueuesPerPort:    c.QueuesPerPort,
			AlphaUnscheduled: c.AlphaUnscheduled,
		},
		Switch: scenario.Switch{
			BM:                c.BM,
			UpdateInterval:    scenario.Duration(c.UpdateInterval),
			CongestedFactor:   c.CongestedFactor,
			DrainRateMeasured: c.DrainRateMeasured,
			StatsInterval:     scenario.Duration(c.StatsIntervalOverride),
			Scheduler:         c.Scheduler,
			Trimming:          c.Trimming,
		},
		Workload: scenario.Workload{
			Load:       c.Load,
			Background: c.Workload,
			CC:         c.WSCC,
			Prio:       c.WSPrio,
			RandomPrio: c.RandomPrio,
			Incast: scenario.Incast{
				RequestFrac: c.RequestFrac,
				Fanout:      c.Fanout,
				Load:        c.IncastLoad,
				CC:          c.IncastCC,
				Prio:        c.IncastPrio,
			},
		},
		Obs: c.Obs,
	}
	if c.Fabric != nil {
		sc.Fabric = *c.Fabric
	}
	// The Alpha knob replicates one value across every queue; scenario
	// specs carry the explicit per-queue vector.
	if c.Alpha > 0 {
		sc.Buffer.Alphas = []float64{c.Alpha}
	}
	// Cell headroom is a sentinel float (0 scheme default, <0 disabled);
	// the spec distinguishes "unset" from "explicitly zero" instead.
	switch {
	case c.HeadroomFrac > 0:
		v := c.HeadroomFrac
		sc.Buffer.HeadroomFrac = &v
	case c.HeadroomFrac < 0:
		v := 0.0
		sc.Buffer.HeadroomFrac = &v
	}
	for _, a := range c.MixedCC {
		sc.Workload.MixedCC = append(sc.Workload.MixedCC,
			scenario.CCAssignment{CC: a.CC, Prio: a.Prio})
	}
	return sc
}

// Result is a finished cell.
type Result struct {
	Cell    Cell
	Summary metrics.Summary
	// PerPrioP99Short holds the per-priority p99 short-flow slowdown for
	// mixed-protocol cells (fig8).
	PerPrioP99Short map[uint8]float64

	Drops            int64
	UnscheduledDrops int64
	Events           uint64

	// Counters holds the telemetry counter totals by export name when
	// the cell enabled telemetry (Cell.Obs); nil otherwise. The model/
	// keys are shard-count-invariant.
	Counters map[string]int64

	// Hists holds the merged histogram snapshots by export name when
	// the cell enabled histogram recording; nil otherwise. Shard-count-
	// invariant like Counters.
	Hists map[string]hist.Snapshot

	// Resolved is the fully-explicit scenario the cell executed — the
	// re-runnable record sweep job results embed.
	Resolved scenario.Scenario
}

// Run executes one cell and returns its result.
func Run(cell Cell) (Result, error) {
	res, _, err := RunDetailed(cell)
	return res, err
}

// RunDetailed is Run, additionally returning the metrics collector with
// every flow record for tracing and custom analysis.
func RunDetailed(cell Cell) (Result, *metrics.Collector, error) {
	sres, col, err := scenario.Run(cell.Scenario())
	if err != nil {
		return Result{}, nil, err
	}
	return Result{
		Cell:             cell,
		Summary:          sres.Summary,
		PerPrioP99Short:  sres.PerPrioP99Short,
		Drops:            sres.Drops,
		UnscheduledDrops: sres.UnscheduledDrops,
		Events:           sres.Events,
		Counters:         sres.Counters,
		Hists:            sres.Hists,
		Resolved:         sres.Scenario,
	}, col, nil
}
