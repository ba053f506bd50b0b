// Package abm is a pure-Go reproduction of "ABM: Active Buffer
// Management in Datacenters" (SIGCOMM 2022): a packet-level
// discrete-event simulator for shared-memory datacenter switches, the
// ABM buffer-sharing algorithm with every baseline the paper compares
// against (DT, Complete Sharing, Complete Partitioning, FAB, Cisco IB,
// and the control-plane ABM approximation), five congestion-control
// algorithms (Cubic, DCTCP, TIMELY, PowerTCP, θ-PowerTCP), the paper's
// workloads, and the fluid-model analysis from its appendix.
//
// The package exposes three levels of API:
//
//   - Experiment: run one evaluation cell (fabric + workloads +
//     buffer-management scheme) and obtain the paper's metrics. This is
//     what the figures and benchmarks use.
//   - Simulation: build a leaf-spine fabric and drive flows manually for
//     custom scenarios.
//   - Analysis: closed-form burst tolerance and isolation bounds
//     (Theorems 1-3, Eqs. 6-11) without running any simulation.
package abm

import (
	"fmt"
	"io"

	"abm/internal/analytic"
	"abm/internal/bm"
	"abm/internal/cc"
	"abm/internal/experiments"
	"abm/internal/metrics"
	"abm/internal/scenario"
	"abm/internal/sim"
	"abm/internal/topo"
	"abm/internal/units"
	"abm/internal/workload"
)

// Re-exported quantity types. These are stable aliases of the internal
// representations so all package APIs interoperate.
type (
	// Time is simulated time in picoseconds.
	Time = units.Time
	// Rate is a data rate in bits per second.
	Rate = units.Rate
	// ByteCount is an amount of data in bytes.
	ByteCount = units.ByteCount
)

// Common constants re-exported for convenience.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second

	Kilobyte = units.Kilobyte
	Megabyte = units.Megabyte

	GigabitPerSec = units.GigabitPerSec
)

// BMSchemes lists the available buffer-management policies.
func BMSchemes() []string { return bm.Names() }

// CCAlgorithms lists the available congestion-control algorithms.
func CCAlgorithms() []string { return cc.Names() }

// Experiment is one evaluation cell: a buffer-management scheme facing
// the paper's workloads on a leaf-spine fabric.
type Experiment = experiments.Cell

// ExperimentResult is the outcome of an experiment.
type ExperimentResult = experiments.Result

// CCAssignment binds a congestion-control algorithm to a priority for
// mixed-protocol experiments (Fig. 8).
type CCAssignment = experiments.CCAssignment

// Summary carries the paper's headline metrics for one run.
type Summary = metrics.Summary

// Scale selects the fabric size for experiments.
type Scale = experiments.Scale

// Fabric scales.
const (
	ScaleSmall  = experiments.ScaleSmall
	ScaleMedium = experiments.ScaleMedium
	ScalePaper  = experiments.ScalePaper
)

// ParseScale resolves "small", "medium" or "paper".
func ParseScale(name string) (Scale, error) { return experiments.ParseScale(name) }

// RunExperiment executes one evaluation cell.
func RunExperiment(e Experiment) (ExperimentResult, error) { return experiments.Run(e) }

// RunExperimentDetailed executes one cell and additionally returns the
// metrics collector with every flow record, for tracing and custom
// analysis.
func RunExperimentDetailed(e Experiment) (ExperimentResult, *metrics.Collector, error) {
	return experiments.RunDetailed(e)
}

// Scenario is the declarative description of one run: fabric shape
// (including oversubscription and asymmetric link rates), buffer model,
// buffer-management and scheduler policy, workload mix, shard count,
// telemetry, duration and seed. Every entry point — experiments, the
// CLIs, the Simulation API — compiles down to one of these.
type Scenario = scenario.Scenario

// ScenarioResult is the outcome of a scenario run, embedding the
// fully-resolved spec it executed.
type ScenarioResult = scenario.Result

// LoadScenario reads a scenario spec from a JSON file. The result is
// unresolved; overrides may be applied before running.
func LoadScenario(path string) (Scenario, error) { return scenario.Load(path) }

// ParseScenario decodes a scenario spec from JSON, rejecting unknown
// fields.
func ParseScenario(data []byte) (Scenario, error) { return scenario.Parse(data) }

// RunScenario resolves and executes one scenario, partitioned across
// the shards its Shards field asks for.
func RunScenario(s Scenario) (ScenarioResult, error) {
	res, _, err := scenario.Run(s)
	return res, err
}

// RunScenarioDetailed is RunScenario, additionally returning the
// metrics collector with every flow record.
func RunScenarioDetailed(s Scenario) (ScenarioResult, *metrics.Collector, error) {
	return scenario.Run(s)
}

// SetScenarioField assigns one scenario field by its dotted JSON-tag
// path (e.g. "switch.bm", "fabric.uplink_gbps"), parsing the value by
// the field's type — the mechanism sweep grids use for axes.
func SetScenarioField(s *Scenario, path, value string) error {
	return scenario.SetField(s, path, value)
}

// WriteFlowTrace dumps flow records as a TSV table.
func WriteFlowTrace(w io.Writer, flows []FlowRecord) error { return metrics.WriteFlows(w, flows) }

// FigureIDs lists the reproducible paper figures.
func FigureIDs() []string { return experiments.FigureIDs }

// RunFigure regenerates one of the paper's figures as a TSV table.
func RunFigure(id string, scale Scale, seed int64, w io.Writer) error {
	return experiments.RunFigure(id, scale, seed, w)
}

// BurstScenario is the analytic Figure 5 setting: a steady-state buffer
// plus an arriving burst. Its methods evaluate DT's and ABM's burst
// tolerance in closed form.
type BurstScenario = analytic.BurstScenario

// PriorityLoad describes one priority's congestion for the steady-state
// formulas.
type PriorityLoad = analytic.PriorityLoad

// DTSteadyThreshold evaluates Eq. 6 of the paper.
func DTSteadyThreshold(b ByteCount, alpha float64, prios []PriorityLoad) ByteCount {
	return analytic.DTSteadyThreshold(b, alpha, prios)
}

// ABMMinGuarantee evaluates Theorem 1.
func ABMMinGuarantee(b ByteCount, alphaP, sumAlphas float64) ByteCount {
	return analytic.ABMMinGuarantee(b, alphaP, sumAlphas)
}

// ABMMaxAllocation evaluates Theorem 2.
func ABMMaxAllocation(b ByteCount, alphaP float64) ByteCount {
	return analytic.ABMMaxAllocation(b, alphaP)
}

// ABMDrainTimeBound evaluates Theorem 3.
func ABMDrainTimeBound(b ByteCount, alphaP float64, bandwidth Rate) Time {
	return analytic.ABMDrainTimeBound(b, alphaP, bandwidth)
}

// Simulation wraps a live fabric for custom scenarios: start flows by
// hand or attach the paper's workload generators, then run the virtual
// clock. The fabric runs on a one-shard parallel engine, the same
// engine scenario runs use.
type Simulation struct {
	par  *sim.Parallel
	net  *topo.Network
	col  *metrics.Collector
	gens []workload.Generator
}

// SimulationConfig parameterizes a custom fabric.
type SimulationConfig struct {
	Seed int64

	// Fabric dimensions; zero values select the paper's 8x8x32 at 10G.
	Spines       int
	Leaves       int
	HostsPerLeaf int
	LinkRate     Rate
	LinkDelay    Time

	QueuesPerPort int

	// BM names the buffer-management scheme (see BMSchemes). Empty
	// selects DT. UpdateInterval applies to ABM-approx.
	BM             string
	UpdateInterval Time

	// BufferKBPerPortPerGbps sizes the switch buffer (§4.3); zero selects
	// the Trident2 value of 9.6.
	BufferKBPerPortPerGbps float64

	// Headroom reserves this fraction of the buffer for first-RTT
	// packets; negative disables, zero selects 1/8 for ABM/IB and 0
	// otherwise.
	Headroom float64

	// Alphas are the per-priority DT/ABM parameters; empty selects 0.5
	// everywhere. AlphaUnscheduled defaults to 64 (§3.3).
	Alphas           []float64
	AlphaUnscheduled float64

	// EnableINT stamps per-hop telemetry (required by PowerTCP).
	EnableINT bool
}

// Scenario converts the config to the declarative spec the scenario
// layer builds fabrics from.
func (cfg SimulationConfig) Scenario() Scenario {
	sc := Scenario{
		Seed: cfg.Seed,
		Fabric: scenario.Fabric{
			Spines:       cfg.Spines,
			Leaves:       cfg.Leaves,
			HostsPerLeaf: cfg.HostsPerLeaf,
			LinkGbps:     float64(cfg.LinkRate) / float64(units.GigabitPerSec),
			LinkDelay:    scenario.Duration(cfg.LinkDelay),
		},
		Buffer: scenario.Buffer{
			KBPerPortPerGbps: cfg.BufferKBPerPortPerGbps,
			QueuesPerPort:    cfg.QueuesPerPort,
			AlphaUnscheduled: cfg.AlphaUnscheduled,
		},
		Switch: scenario.Switch{
			BM:             cfg.BM,
			UpdateInterval: scenario.Duration(cfg.UpdateInterval),
			EnableINT:      cfg.EnableINT,
		},
	}
	// The sentinel float maps to the spec's explicit pointer: positive
	// pins the fraction, negative disables, zero keeps the scheme default.
	switch {
	case cfg.Headroom > 0:
		v := cfg.Headroom
		sc.Buffer.HeadroomFrac = &v
	case cfg.Headroom < 0:
		v := 0.0
		sc.Buffer.HeadroomFrac = &v
	}
	// This config's alpha vector pads missing entries with 0.5 rather
	// than replicating a single entry; expand here so the spec's
	// single-entry shorthand doesn't reinterpret it.
	if len(cfg.Alphas) > 0 {
		qpp := cfg.QueuesPerPort
		if qpp <= 0 {
			qpp = 1
		}
		alphas := make([]float64, qpp)
		for i := range alphas {
			alphas[i] = 0.5
			if i < len(cfg.Alphas) && cfg.Alphas[i] > 0 {
				alphas[i] = cfg.Alphas[i]
			}
		}
		sc.Buffer.Alphas = alphas
	}
	return sc
}

// NewSimulation builds a fabric.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	return NewSimulationFromScenario(cfg.Scenario())
}

// NewSimulationFromScenario builds a fabric from a declarative scenario
// spec (its workload and duration fields are ignored — the caller
// drives traffic and the clock).
func NewSimulationFromScenario(sc Scenario) (*Simulation, error) {
	_, p, net, _, err := scenario.BuildFabric(sc)
	if err != nil {
		return nil, err
	}
	return &Simulation{par: p, net: net, col: &metrics.Collector{}}, nil
}

// NumHosts returns the number of servers in the fabric.
func (s *Simulation) NumHosts() int { return s.net.NumHosts() }

// BaseRTT returns the fabric's longest-path propagation RTT.
func (s *Simulation) BaseRTT() Time { return s.net.BaseRTT() }

// Now returns the current simulated time: the last Run deadline between
// runs, the firing event's time inside a callback.
func (s *Simulation) Now() Time { return max(s.par.Now(), s.par.Shard(0).Now()) }

// StartFlow launches one flow using the named congestion-control
// algorithm at the current time. onComplete (may be nil) fires when
// every byte is acknowledged.
func (s *Simulation) StartFlow(src, dst int, size ByteCount, prio uint8,
	ccName string, onComplete func(fct Time)) error {
	n := s.net.NumHosts()
	switch {
	case src < 0 || src >= n || dst < 0 || dst >= n:
		return fmt.Errorf("abm: flow %d -> %d outside hosts [0, %d)", src, dst, n)
	case src == dst:
		return fmt.Errorf("abm: flow from host %d to itself", src)
	case size <= 0:
		return fmt.Errorf("abm: flow size %v must be positive", size)
	}
	factory, err := cc.NewFactory(ccName)
	if err != nil {
		return err
	}
	start := s.Now()
	s.col.AddFlow(metrics.FlowRecord{
		Class: metrics.ClassOther,
		Prio:  prio,
		Size:  size,
		Start: start,
		Ideal: s.net.IdealFCT(src, dst, size),
	})
	idx := len(s.col.Flows) - 1
	id := s.net.AllocFlowID()
	s.col.Flows[idx].ID = id
	done := func(now Time) {
		s.col.Flows[idx].End = now
		s.col.Flows[idx].Finished = true
		if onComplete != nil {
			onComplete(now - start)
		}
	}
	algo := factory()
	s.net.SimOfHost(src).At(start, func() {
		s.net.StartFlowWithID(id, src, dst, size, prio, algo, done)
	})
	return nil
}

// AttachWebSearch starts the paper's Poisson web-search workload at the
// given bisection load, arriving from the current time on. Call it
// between runs: each Run plans the arrivals up to its deadline.
func (s *Simulation) AttachWebSearch(load float64, ccName string, prio uint8) (*workload.WebSearch, error) {
	factory, err := cc.NewFactory(ccName)
	if err != nil {
		return nil, err
	}
	ws := &workload.WebSearch{Net: s.net, Load: load, CC: factory, Prio: prio, Collect: s.col}
	if err := ws.Begin(s.Now()); err != nil {
		return nil, err
	}
	s.gens = append(s.gens, ws)
	return ws, nil
}

// AttachIncast starts the paper's query/response incast workload; like
// AttachWebSearch, call it between runs. A zero fanout selects 8.
func (s *Simulation) AttachIncast(requestSize ByteCount, fanout int, qps float64,
	ccName string, prio uint8) (*workload.Incast, error) {
	factory, err := cc.NewFactory(ccName)
	if err != nil {
		return nil, err
	}
	ic := &workload.Incast{
		Net: s.net, RequestSize: requestSize, Fanout: fanout,
		QueryRate: qps, CC: factory, Prio: prio, Collect: s.col,
	}
	if err := ic.Begin(s.Now()); err != nil {
		return nil, err
	}
	s.gens = append(s.gens, ic)
	return ic, nil
}

// Run plans the attached workloads' arrivals up to the given absolute
// time and advances the virtual clock to it. A time already passed is a
// no-op.
func (s *Simulation) Run(until Time) {
	if until < s.par.Now() {
		return
	}
	workload.Plan(until, s.gens...)
	s.par.RunUntil(until)
}

// Drain stops the switch tickers and runs the calendar dry; call once at
// the end of a scenario. Arrivals past the last Run deadline are never
// planned, so attached workloads need not be stopped first.
func (s *Simulation) Drain() {
	s.net.Stop()
	s.par.Drain()
}

// Flows returns the records of all flows started so far.
func (s *Simulation) Flows() []metrics.FlowRecord { return s.col.Flows }

// Summarize computes the paper's headline metrics for the run.
func (s *Simulation) Summarize() Summary {
	return s.col.Summarize(s.net.Cfg.LinkRate)
}

// TotalDrops returns fabric-wide packet drops.
func (s *Simulation) TotalDrops() int64 { return s.net.TotalDrops() }

// FlowClass labels re-exported for filtering Flows().
const (
	ClassWebSearch = metrics.ClassWebSearch
	ClassIncast    = metrics.ClassIncast
	ClassOther     = metrics.ClassOther
)

// FlowRecord re-exported for Flows().
type FlowRecord = metrics.FlowRecord

// Percentile computes the p-th percentile of vals.
func Percentile(vals []float64, p float64) float64 { return metrics.Percentile(vals, p) }
