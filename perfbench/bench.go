package main

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	abmmetrics "abm/internal/metrics"
	"abm/internal/topo"
)

var workloadNames = []string{"fig6-serial", "fig6-sharded", "scenario-sweep"}

// workload is one named set of inputs. An operation is one simulation
// run (fig6) or one sweep over one replication of the scenario grid
// (scenario-sweep); operations cycle over the workload's inputs.
type workload interface {
	inputs() int
	// setup makes the workload's public set-up calls once for input i
	// and returns their wall time and the part spent in Resolve.
	setup(tr *tracer, parent, i int) (total, resolve time.Duration, err error)
	// op runs operation i and records its checks.
	op(tr *tracer, parent, i int, ck *checks) opResult
	// warmup runs a short operation so that timed runs start with the
	// heap grown and the code paths loaded.
	warmup(ck *checks)
	// countersPass returns one cycle's telemetry counter totals and the
	// wall time of the runs that produced them.
	countersPass(tr *tracer, parent int, ck *checks) (counts, time.Duration)
	modelOut() *modelOut
	// fabrics builds the fabrics the workload runs on.
	fabrics() ([]*topo.Network, error)
}

// opResult is one operation's cost.
type opResult struct {
	wall   time.Duration
	sim    float64 // simulated seconds of traffic
	jobs   int
	events uint64
	fatal  bool // a timeout: stop measuring

	// Filled by timedOp.
	rssMB   float64 // peak resident set while the operation ran
	cpu     time.Duration
	runtime runtimeSample // runtime counters accrued during the operation
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "fig6-serial":
		return newFig6(cfg, 0)
	case "fig6-sharded":
		return newFig6(cfg, 2)
	case "scenario-sweep":
		return newSweep(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// Set-up is timed for setupSeconds (at least setupReps times) and
// reported as the median.
const (
	setupReps    = 15
	setupSeconds = 1.0
)

// setupTimes runs the set-up calls repeatedly and returns the medians of
// the total and of its Resolve part, in seconds.
func setupTimes(wl workload, tr *tracer, parent int) (total, resolve float64, err error) {
	var tot, res []float64
	start := time.Now()
	for i := 0; i < setupReps || (time.Since(start).Seconds() < setupSeconds && i < 4000); i++ {
		t, r, err := wl.setup(tr, parent, i)
		if err != nil {
			return 0, 0, fmt.Errorf("set-up: %w", err)
		}
		tot, res = append(tot, t.Seconds()), append(res, r.Seconds())
	}
	return median(tot), median(res), nil
}

// rssEvery is the resident-set sampling period during an operation.
const rssEvery = 10 * time.Millisecond

// sampleRSS samples the resident set every rssEvery until the returned
// function is called; that function waits for the sampler to stop and
// returns the peak in MB.
func sampleRSS() func() float64 {
	stop, peak := make(chan struct{}), make(chan float64)
	go func() {
		hi := 0.0
		sample := func() {
			if r, err := rssMB(); err == nil && r > hi {
				hi = r
			}
		}
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			sample()
			select {
			case <-stop:
				sample()
				peak <- hi
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-peak
	}
}

// timedOp runs operation i starting from a heap returned to the OS, so
// that the resident set sampled while it runs is its own peak; with a
// non-nil profile it runs under the CPU profiler.
func timedOp(wl workload, tr *tracer, parent, i int, ck *checks, profile *bytes.Buffer) (opResult, error) {
	debug.FreeOSMemory()
	peakRSS := sampleRSS()
	if profile != nil {
		if err := pprof.StartCPUProfile(profile); err != nil {
			peakRSS()
			return opResult{}, err
		}
	}
	rt0, cpu0 := readRuntime(), cpuTime()
	o := wl.op(tr, parent, i, ck)
	o.cpu, o.runtime = cpuTime()-cpu0, readRuntime().minus(rt0)
	if profile != nil {
		pprof.StopCPUProfile()
	}
	o.rssMB = peakRSS()
	return o, nil
}

// phase is one measured stretch of operations.
type phase struct {
	sims     []float64 // per input
	jobs     []int     // per input
	events   []uint64  // per input
	perEvent []float64 // wall seconds per simulated event, per operation
	rss      []float64 // peak resident set in MB, per operation
	cpu      time.Duration
	wall     time.Duration
	runtime  runtimeSample
	ops      int
}

func newPhase(inputs int) *phase {
	return &phase{sims: make([]float64, inputs), jobs: make([]int, inputs), events: make([]uint64, inputs)}
}

func (p *phase) record(i int, o opResult) {
	j := i % len(p.sims)
	p.sims[j], p.jobs[j] = o.sim, o.jobs
	if o.events > 0 {
		p.events[j] = o.events
		p.perEvent = append(p.perEvent, o.wall.Seconds()/float64(o.events))
	}
	p.rss = append(p.rss, o.rssMB)
	p.cpu += o.cpu
	p.wall += o.wall
	p.runtime = p.runtime.plus(o.runtime)
	p.ops++
}

// measure runs operations for at least secs seconds and at least one
// full cycle of inputs.
func measure(wl workload, secs float64, ck *checks) (*phase, error) {
	ph := newPhase(wl.inputs())
	start := time.Now()
	for i := 0; i < wl.inputs() || time.Since(start).Seconds() < secs; i++ {
		o, err := timedOp(wl, nil, 0, i, ck, nil)
		if err != nil {
			return nil, err
		}
		ph.record(i, o)
		if o.fatal {
			break
		}
	}
	return ph, nil
}

// cycleWall estimates the wall time of one cycle of inputs: the median
// over operations of wall time per simulated event, times the cycle's
// events. Within a workload, wall time follows the event count, and the
// median keeps a slow stretch on a shared machine from setting the
// result.
func (p phase) cycleWall() float64 { return median(p.perEvent) * float64(p.cycleEvents()) }

func (p phase) cycleSim() float64 { return sum(p.sims) }

func (p phase) cycleJobs() (n int) {
	for _, x := range p.jobs {
		n += x
	}
	return n
}

func (p phase) cycleEvents() (n uint64) {
	for _, x := range p.events {
		n += x
	}
	return n
}

func (p phase) wallPerSim() float64 { return ratio(p.cycleWall(), p.cycleSim()) }
func (p phase) jobsPerS() float64   { return ratio(float64(p.cycleJobs()), p.cycleWall()) }

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd measures the user-facing metrics with tracing off.
func endToEnd(cfg config, wl workload, ck *checks) (map[string]metric, map[string]metric, error) {
	setupS, _, err := setupTimes(wl, nil, 0)
	if err != nil {
		return nil, nil, err
	}
	wl.warmup(ck)
	ph, err := measure(wl, cfg.seconds, ck)
	if err != nil {
		return nil, nil, err
	}
	e2e := map[string]metric{
		"setup_s":        {setupS, "s"},
		"wall_per_sim_s": {ph.wallPerSim(), "s/s"},
		"jobs_per_s":     {ph.jobsPerS(), "1/s"},
		"peak_rss_mb":    {median(ph.rss), "MB"},
	}
	// The cycle's event count and the cost per event split a change in
	// wall_per_sim_s into its seed and host parts.
	extra := modelMetrics(wl.modelOut())
	extra["sim.events"] = metric{float64(ph.cycleEvents()), "count"}
	extra["sim.ns_per_event"] = metric{median(ph.perEvent) * 1e9, "ns"}
	return e2e, extra, nil
}

// modelMetrics are the simulated outcome of one cycle: the paper's
// Fig. 6 tail slowdowns, pooled over the cycle's flows. They repeat
// exactly at a given seed.
func modelMetrics(m *modelOut) map[string]metric {
	return map[string]metric{
		"model.p99_incast_slowdown": {abmmetrics.Percentile(m.incast, 99), "x"},
		"model.p99_short_slowdown":  {abmmetrics.Percentile(m.short, 99), "x"},
	}
}

// runtimeSample reads the Go runtime's GC CPU and allocation totals.
type runtimeSample struct{ gcCPU, busyCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: f(0), busyCPU: f(1) - f(2), allocBytes: f(3)}
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU - b.gcCPU, a.busyCPU - b.busyCPU, a.allocBytes - b.allocBytes}
}

func (a runtimeSample) plus(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU + b.gcCPU, a.busyCPU + b.busyCPU, a.allocBytes + b.allocBytes}
}

// Modules whose CPU share is reported by name; the rest of abm/internal
// and the benchmark itself add up to other.cpu_frac.
var namedModules = []string{"sim", "eventq", "device", "bm", "topo", "transport", "host", "cc",
	"packet", "workload", "hybrid", "obs", "runtime"}

// traced runs the workload untraced and, alternately, under a CPU profile
// with spans around every call the benchmark makes; then once more with
// counters, then the layer replays. It returns the per-layer split.
func traced(cfg config, wl workload, ck *checks) (map[string]metric, map[string]float64, []span, error) {
	tr := newTracer()
	root := tr.begin("perfbench", 0)
	setupS, resolveS, err := setupTimes(wl, tr, root.id)
	if err != nil {
		return nil, nil, nil, err
	}
	wl.warmup(ck)

	// Untraced and traced operations alternate, each input once per
	// pair, so drift on a shared machine reaches both sides alike; only
	// the traced ones run under the CPU profile.
	n := wl.inputs()
	base, ph := newPhase(n), newPhase(n)
	var profs [][]byte
	sp := tr.begin("phase.profiled", root.id)
	start := time.Now()
	for i := 0; i < n || time.Since(start).Seconds() < cfg.seconds; i++ {
		o, err := timedOp(wl, nil, 0, i, ck, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		base.record(i, o)
		if o.fatal {
			break
		}
		var prof bytes.Buffer
		if o, err = timedOp(wl, tr, sp.id, i, ck, &prof); err != nil {
			return nil, nil, nil, err
		}
		ph.record(i, o)
		profs = append(profs, prof.Bytes())
		if o.fatal {
			break
		}
	}
	sp.end()

	sp = tr.begin("phase.counters", root.id)
	ctr, ctrWall := wl.countersPass(tr, sp.id, ck)
	sp.end()

	sp = tr.begin("phase.replays", root.id)
	rep, err := replays(cfg, wl, tr, sp.id)
	sp.end()
	if err != nil {
		return nil, nil, nil, err
	}
	root.end()

	shares, samples, err := moduleShares(profs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("reading the CPU profile: %w", err)
	}
	spans := tr.snapshot()
	m := wl.modelOut()
	cycles := float64(ph.ops) / float64(wl.inputs())
	events := float64(ph.cycleEvents())
	admitted := float64(ctr["model/admitted_pkts"])
	dataSent := float64(ctr["model/data_pkts_sent"])

	out := map[string]metric{
		"sim.events":            {events, "count"},
		"sim.ns_per_event":      {median(base.perEvent) * 1e9, "ns"},
		"sim.windows":           {float64(ctr["engine/windows"]), "count"},
		"sim.barriers":          {float64(ctr["engine/barriers"]), "count"},
		"sim.events_per_window": {ratio(events, float64(ctr["engine/windows"])), "count"},
		"sim.mailbox_events":    {float64(ctr["engine/mailbox_events"]), "count"},
		"sim.barrier_wait_frac": {ratio(float64(ctr["engine/barrier_wait_ns"]), float64(ctrWall)), "frac"},
		"sim.cores_busy":        {ratio(ph.cpu.Seconds(), ph.wall.Seconds()), "cores"},

		"device.admitted_pkts":       {admitted, "count"},
		"device.drops":               {float64(ctr.drops()), "count"},
		"device.ecn_marked":          {float64(ctr["model/ecn_marked"]), "count"},
		"device.ns_per_admitted_pkt": {ratio(shares["device"]*float64(ph.cpu), admitted*cycles), "ns"},

		"bm.threshold_ns.DT":  {rep["DT"], "ns"},
		"bm.threshold_ns.ABM": {rep["ABM"], "ns"},

		"topo.route_ns":      {rep["route"], "ns"},
		"topo.build_s":       {setupS - resolveS, "s"},
		"topo.link_events":   {float64(m.linkEvents), "count"},
		"topo.link_event_ms": {rep["linkevent"], "ms"},
		"scenario.resolve_s": {resolveS, "s"},

		"transport.data_pkts_sent": {dataSent, "count"},
		"transport.retrans_frac":   {ratio(float64(ctr["model/retrans_pkts_sent"]), dataSent), "frac"},
		"transport.rto_fired":      {float64(ctr["model/rto_fired"]), "count"},
		"workload.flows":           {float64(m.flows), "count"},

		"hybrid.demotions":        {float64(ctr["model/hybrid_demotions"]), "count"},
		"hybrid.promotions":       {float64(ctr["model/hybrid_promotions"]), "count"},
		"hybrid.epochs":           {float64(ctr["model/hybrid_epochs"]), "count"},
		"hybrid.fluid_bytes_frac": {ratio(float64(ctr["model/hybrid_fluid_bytes"]), float64(m.flowBytes)), "frac"},

		"hist.record_ns":       {rep["hist"], "ns"},
		"metrics.summarize_ms": {rep["summarize"], "ms"},

		"runtime.gc_cpu_frac": {ratio(ph.runtime.gcCPU, ph.runtime.busyCPU), "frac"},
		"runtime.alloc_mb":    {ratio(ph.runtime.allocBytes/(1<<20), float64(ph.ops)), "MB"},

		"trace.overhead_frac":     {ratio(ph.wallPerSim(), base.wallPerSim()) - 1, "frac"},
		"profile.samples":         {float64(samples), "count"},
		"profile.unbucketed_frac": {shares[""], "frac"},
	}
	other := 0.0
	if samples > 0 {
		other = 1 - shares[""]
	}
	for _, mod := range namedModules {
		out[mod+".cpu_frac"] = metric{shares[mod], "frac"}
		other -= shares[mod]
	}
	out["other.cpu_frac"] = metric{max(other, 0), "frac"}
	for k, v := range runnerMetrics(wl, spans) {
		out[k] = v
	}
	for k, v := range modelMetrics(m) {
		out[k] = v
	}
	profile := make(map[string]float64, len(shares))
	for k, v := range shares {
		if k == "" {
			k = "(unbucketed)"
		}
		profile[k] = v
	}
	return out, profile, spans, nil
}

// replays times each layer's public per-packet entry points.
func replays(cfg config, wl workload, tr *tracer, parent int) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, scheme := range []string{"DT", "ABM"} {
		ns, err := thresholdNs(tr, parent, scheme)
		if err != nil {
			return nil, err
		}
		out[scheme] = ns
	}
	nets, err := wl.fabrics()
	if err != nil {
		return nil, err
	}
	out["route"] = routeNs(tr, parent, nets)
	if out["linkevent"], err = linkEventMs(tr, parent, cfg.root); err != nil {
		return nil, err
	}
	out["hist"] = histRecordNs(tr, parent)
	m := wl.modelOut()
	out["summarize"] = summarizeMs(tr, parent, m.col, m.lineRate)
	return out, nil
}

// runnerMetrics reads the sweep's pool behaviour from its spans: jobs
// per sweep, the share of worker time not spent in jobs, and the
// RecordSink.Put latency. Workloads that bypass the runner report zeros.
func runnerMetrics(wl workload, spans []span) map[string]metric {
	out := map[string]metric{
		"runner.jobs":            {0, "count"},
		"runner.overhead_frac":   {0, "frac"},
		"runner.sink_put_ms_p50": {0, "ms"},
		"runner.sink_put_ms_p90": {0, "ms"},
	}
	sw, ok := wl.(*sweep)
	if !ok {
		return out
	}
	poolMs, jobMs := sum(named(spans, "runner.Pool.Run")), sum(named(spans, "job"))
	puts := named(spans, "RecordSink.Put")
	sort.Float64s(puts)
	jobs := 0
	for _, p := range sw.plans {
		jobs += len(p.Specs)
	}
	out["runner.jobs"] = metric{float64(jobs), "count"}
	out["runner.overhead_frac"] = metric{1 - ratio(jobMs, sweepWorkers*poolMs), "frac"}
	out["runner.sink_put_ms_p50"] = metric{quantile(puts, 0.5), "ms"}
	out["runner.sink_put_ms_p90"] = metric{quantile(puts, 0.9), "ms"}
	return out
}
