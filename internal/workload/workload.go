// Package workload generates the paper's two traffic patterns (§4.1):
// a Poisson web-search workload whose flow sizes follow the DCTCP
// measurement CDF, at a configurable fraction of the fabric's access
// bandwidth, and a synthetic incast workload modeling distributed
// file-system query/response fan-in.
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"abm/internal/cc"
	"abm/internal/metrics"
	"abm/internal/randutil"
	"abm/internal/sim"
	"abm/internal/topo"
	"abm/internal/units"
)

// Generator is one planned arrival process (WebSearch or Incast): a
// Poisson clock over a private random stream. Plan launches the
// arrivals of any number of generators in merged time order.
type Generator interface {
	// nextArrival returns the time of the drawn-but-unlaunched next
	// arrival; ok is false before Begin and after Stop.
	nextArrival() (t units.Time, ok bool)
	// launchNext launches that arrival and draws the one after it.
	launchNext()
}

// Plan launches, in arrival order, every arrival of gens due at or
// before horizon — the inclusive bound Parallel.RunUntil executes to —
// that an earlier call has not launched: collector rows and flow IDs
// are allocated here, in that merged order, and each flow's start is
// scheduled on its source host's shard. Exact ties go to the generator
// listed first. Call it with growing horizons to extend the schedule
// run by run; the streams continue draw-for-draw, so planning in steps
// or all at once yields the same arrivals.
func Plan(horizon units.Time, gens ...Generator) {
	for {
		var first Generator
		var at units.Time
		for _, g := range gens {
			if t, ok := g.nextArrival(); ok && t <= horizon && (first == nil || t < at) {
				first, at = g, t
			}
		}
		if first == nil {
			return
		}
		first.launchNext()
	}
}

// poisson is a Poisson arrival clock: at holds the next arrival, drawn
// from rng but not yet launched.
type poisson struct {
	rng  *rand.Rand
	mean units.Time
	at   units.Time
}

func (p *poisson) begin(seed int64, from, mean units.Time) {
	p.rng = rand.New(rand.NewSource(seed))
	p.mean = mean
	p.at = from
	p.draw()
}

func (p *poisson) draw() { p.at += randutil.Exponential(p.rng, p.mean) }

// WebSearch drives the background workload: flows arrive as a global
// Poisson process with rate chosen so the expected inter-rack offered
// load equals Load times the fabric's bisection capacity; sizes follow
// the web-search CDF; sources and destinations are distinct uniform
// hosts.
type WebSearch struct {
	Net     *topo.Network
	Load    float64 // fraction of bisection (uplink) capacity, e.g. 0.4
	Prio    uint8
	CC      cc.Factory
	Sizes   *randutil.EmpiricalCDF
	Collect *metrics.Collector

	// PickCC optionally overrides CC per flow (used by the mixed-protocol
	// isolation experiment); it receives the flow index.
	PickCC func(i int) (cc.Factory, uint8)

	// Seed isolates the workload's randomness from the rest of the
	// simulation, so two runs that differ only in switch configuration
	// see identical arrival patterns. Zero derives a fixed default.
	Seed int64

	clock   poisson
	started int
	stopped bool
}

// Begin validates the generator and starts its arrival clock at time
// from: the first arrival falls one exponential gap later. Plan then
// launches the arrivals.
func (w *WebSearch) Begin(from units.Time) error {
	if !(w.Load > 0 && w.Load <= 1) {
		return fmt.Errorf("workload: load %v out of (0,1]", w.Load)
	}
	if w.CC == nil && w.PickCC == nil {
		return errors.New("workload: web search needs a cc factory")
	}
	if w.Net.G.NumGroups() < 2 {
		return errors.New("workload: web search load is defined across racks; the fabric has one")
	}
	if w.Sizes == nil {
		w.Sizes = randutil.WebSearch
	}
	seed := w.Seed
	if seed == 0 {
		seed = 0x5eed_ab1e
	}
	w.clock.begin(seed, from, w.interArrival())
	return nil
}

// interArrival returns the mean gap between flow arrivals for the target
// load. Load is defined against the fabric's bisection (leaf-spine
// uplink) capacity: with the paper's 4:1 oversubscription, defining it
// against host bandwidth would saturate the uplinks at 25% already.
// Uniform source/destination selection sends an interRack fraction of
// the bytes across the bisection, so the arrival rate is scaled to make
// that fraction equal Load * bisection capacity.
func (w *WebSearch) interArrival() units.Time {
	bisection := float64(w.Net.BisectionBits()) // bits/s: edge uplink aggregate
	n := float64(w.Net.NumHosts())
	interRackFrac := (n - float64(w.Net.HostsPerGroup())) / (n - 1)
	flowsPerSec := w.Load * bisection / (w.Sizes.Mean() * 8 * interRackFrac)
	return units.Time(float64(units.Second) / flowsPerSec)
}

func (w *WebSearch) nextArrival() (units.Time, bool) {
	return w.clock.at, w.clock.rng != nil && !w.stopped
}

func (w *WebSearch) launchNext() {
	rng := w.clock.rng
	n := w.Net.NumHosts()
	src := rng.Intn(n)
	dst := rng.Intn(n - 1)
	if dst >= src {
		dst++
	}
	size := w.Sizes.SampleBytes(rng)
	factory, prio := w.CC, w.Prio
	if w.PickCC != nil {
		factory, prio = w.PickCC(w.started)
	}
	w.started++
	launch(w.Net, w.Collect, w.clock.at, src, dst, size, prio, factory(), metrics.ClassWebSearch)
	w.clock.draw()
}

// Started returns the number of flows launched so far.
func (w *WebSearch) Started() int { return w.started }

// Stop ends the arrival process: Plan launches nothing more (flows
// already planned keep running).
func (w *WebSearch) Stop() { w.stopped = true }

// Incast drives the query/response workload: queries arrive as a Poisson
// process; each query picks a requester and Fanout responders uniformly
// from a different rack, and every responder sends RequestSize/Fanout
// bytes back simultaneously — the paper's distributed file-system
// behaviour (§4.1).
type Incast struct {
	Net         *topo.Network
	RequestSize units.ByteCount // total bytes fanned in per query
	Fanout      int             // responding servers per query (0 = 8)
	QueryRate   float64         // queries per second across the fabric
	Prio        uint8
	CC          cc.Factory
	Collect     *metrics.Collector

	// PickPrio optionally overrides Prio per response flow (used when the
	// load is spread across queues, §4.4).
	PickPrio func() uint8

	// Seed isolates the workload's randomness; zero derives a default.
	Seed int64

	clock   poisson
	queries int
	stopped bool
}

// Begin validates the generator and starts its query clock at time
// from; see WebSearch.Begin.
func (ic *Incast) Begin(from units.Time) error {
	mean := units.Time(float64(units.Second) / ic.QueryRate)
	switch {
	case ic.Fanout < 0:
		return fmt.Errorf("workload: incast fanout %d is negative", ic.Fanout)
	case ic.RequestSize <= 0:
		return fmt.Errorf("workload: incast request size %v must be positive", ic.RequestSize)
	case !(ic.QueryRate > 0) || mean <= 0:
		return fmt.Errorf("workload: incast query rate %v out of range", ic.QueryRate)
	case ic.CC == nil:
		return errors.New("workload: incast needs a cc factory")
	case ic.Net.G.NumGroups() < 2:
		return errors.New("workload: incast responders come from other racks; the fabric has one")
	}
	if ic.Fanout == 0 {
		ic.Fanout = 8
	}
	seed := ic.Seed
	if seed == 0 {
		seed = 0x1ca57
	}
	ic.clock.begin(seed, from, mean)
	return nil
}

func (ic *Incast) nextArrival() (units.Time, bool) {
	return ic.clock.at, ic.clock.rng != nil && !ic.stopped
}

func (ic *Incast) launchNext() {
	rng := ic.clock.rng
	n := ic.Net.NumHosts()
	requester := rng.Intn(n)
	reqGroup := ic.Net.GroupOf(requester)

	// Responders come from racks other than the requester's.
	var candidates []int
	for h := 0; h < n; h++ {
		if ic.Net.GroupOf(h) != reqGroup {
			candidates = append(candidates, h)
		}
	}
	fanout := min(ic.Fanout, len(candidates))
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	per := max(ic.RequestSize/units.ByteCount(fanout), 1)
	ic.queries++
	for _, responder := range candidates[:fanout] {
		prio := ic.Prio
		if ic.PickPrio != nil {
			prio = ic.PickPrio()
		}
		launch(ic.Net, ic.Collect, ic.clock.at, responder, requester, per, prio, ic.CC(), metrics.ClassIncast)
	}
	ic.clock.draw()
}

// Queries returns the number of queries issued.
func (ic *Incast) Queries() int { return ic.queries }

// Stop ends the query process; see WebSearch.Stop.
func (ic *Incast) Stop() { ic.stopped = true }

// launch records one flow and schedules its start at time t on the
// source host's shard. The collector row is appended (and the flow ID
// allocated) at planning time, so collector layout and flow IDs follow
// planning order; only the End/Finished fields are written during the
// run, each by the flow's own completion callback into its private row
// — safe under shard concurrency.
func launch(net *topo.Network, col *metrics.Collector, t units.Time,
	src, dst int, size units.ByteCount, prio uint8, algo cc.Algorithm, class metrics.FlowClass) {
	rec := metrics.FlowRecord{
		Class: class,
		Prio:  prio,
		Size:  size,
		Start: t,
		Ideal: net.IdealFCT(src, dst, size),
	}
	idx := -1
	if col != nil {
		col.AddFlow(rec)
		idx = len(col.Flows) - 1
	}
	id := net.AllocFlowID()
	if idx >= 0 {
		col.Flows[idx].ID = id
	}
	onComplete := func(now units.Time) {
		if idx >= 0 {
			col.Flows[idx].End = now
			col.Flows[idx].Finished = true
		}
	}
	net.SimOfHost(src).At(t, func() {
		net.StartFlowWithID(id, src, dst, size, prio, algo, onComplete)
	})
}

// LongFlows drives the steady long-flow workload: host i opens one flow
// of Size bytes to host (i+Stride) mod N at time i*Stagger — a full
// permutation pattern whose flows all converge to steady state (the
// hybrid engine's demotion showcase). The pattern is deterministic (no
// RNG), so launches are planned up front on each source host's shard,
// with flow IDs allocated in host order.
type LongFlows struct {
	Net     *topo.Network
	Size    units.ByteCount
	Stride  int // source-to-destination offset of the permutation
	Count   int // source hosts that open a flow (0 = all)
	Stagger units.Time
	Prio    uint8
	CC      cc.Factory
	Collect *metrics.Collector

	started int
}

// Schedule plans every flow launch. Call before the run starts.
func (lf *LongFlows) Schedule() {
	if lf.Size <= 0 {
		panic("workload: long flows need a size")
	}
	if lf.CC == nil {
		panic("workload: long flows need a cc factory")
	}
	n := lf.Net.NumHosts()
	srcs := n
	if lf.Count > 0 && lf.Count < n {
		srcs = lf.Count
	}
	for src := 0; src < srcs; src++ {
		dst := (src + lf.Stride) % n
		if dst < 0 {
			dst += n
		}
		if dst == src {
			continue
		}
		t := units.Time(src) * lf.Stagger
		launch(lf.Net, lf.Collect, t, src, dst, lf.Size, lf.Prio, lf.CC(), metrics.ClassLong)
		lf.started++
	}
}

// Started returns the number of flows scheduled.
func (lf *LongFlows) Started() int { return lf.started }

// BufferSampler periodically records the fabric's worst-switch occupancy
// fraction into the collector. It reads every switch, so it runs at the
// engine's window barriers, where the whole fabric is quiescent.
type BufferSampler struct {
	Net     *topo.Network
	Collect *metrics.Collector
	barrier *sim.BarrierTicker
}

// StartBarrier samples every interval of simulated time at the
// engine's window barriers: each sample sees every event before its due
// time executed on every shard and none after.
func (b *BufferSampler) StartBarrier(interval units.Time) {
	b.barrier = b.Net.Par.NewBarrierTicker(interval, func(units.Time) {
		b.Collect.SampleBuffer(b.Net.WorstBufferFrac())
	})
}

// Stop halts sampling.
func (b *BufferSampler) Stop() {
	if b.barrier != nil {
		b.barrier.Stop()
	}
}
