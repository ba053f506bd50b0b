package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"abm/internal/obs"
	"abm/internal/randutil"
	"abm/internal/runner"
	"abm/internal/scenario"
	"abm/internal/topo"
)

// Default size of scenario-sweep: the 6 committed scenarios x {DT, ABM}
// grid, replicated over 3 seeds derived from the benchmark seed. Each
// replication is one input: a 12-job sweep of about 3 s on two workers.
const (
	sweepReps    = 3
	sweepWorkers = 2
)

// sweep runs every committed scenario under DT and ABM on runner.Pool,
// persisting records through the durable store cmd/sweep -out uses.
type sweep struct {
	plans    []*runner.Plan      // one per replication of the grid
	sims     []float64           // Σ job windows per plan, simulated seconds
	specs    []scenario.Scenario // the distinct (scenario, scheme) specs
	workDir  string
	ops      int
	poolSpan int // parent span of the jobs of the running sweep
	tr       *tracer

	mu      sync.Mutex
	digests map[string]uint64
	first   map[string]runOut // first run of each job, for the model outputs
	model   modelOut
	modeled []bool            // per plan: outputs added to model
	last    [][]runner.Record // per plan: the records of its latest sweep
}

func newSweep(cfg config) (*sweep, error) {
	files, err := filepath.Glob(filepath.Join(cfg.root, "scenarios", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenarios/*.json under %s", cfg.root)
	}
	sort.Strings(files)
	reps := cfg.reps
	if reps <= 0 {
		reps = sweepReps
	}
	w := &sweep{
		sims: make([]float64, reps), modeled: make([]bool, reps), last: make([][]runner.Record, reps),
		digests: make(map[string]uint64),
		first:   make(map[string]runOut),
	}
	for rep := 0; rep < reps; rep++ {
		w.plans = append(w.plans, &runner.Plan{Name: "scenario-sweep"})
	}
	for _, f := range files {
		base, err := scenario.Load(f)
		if err != nil {
			return nil, err
		}
		for _, scheme := range []string{"DT", "ABM"} {
			s := base.Clone()
			s.Switch.BM = scheme
			// Sweep workers record counters and histograms into every
			// job record.
			s.Obs = obs.Options{Counters: true, Hists: true}
			if cfg.sweepDur > 0 {
				s.Duration = scenario.Duration(cfg.sweepDur * 1e12)
			}
			r, err := s.Resolve()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			w.specs = append(w.specs, s)
			group := fmt.Sprintf("%s/bm=%s", base.Name, scheme)
			for rep, plan := range w.plans {
				job := w.spec(fmt.Sprintf("%s/rep=%d", group, rep), group, s)
				job.Seed = randutil.DeriveSeed(cfg.seed, rep*len(files)*2+len(w.specs)-1)
				plan.Add(job)
				w.sims[rep] += r.Duration.Time().Seconds()
			}
		}
	}
	build := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	if w.workDir, err = os.MkdirTemp(build, "sweep-"); err != nil {
		return nil, err
	}
	return w, nil
}

// spec is one job: the scenario at the job's derived seed, its output
// digested into the record so later sweeps can be compared with it.
func (w *sweep) spec(id, group string, s scenario.Scenario) runner.Spec {
	return runner.Spec{
		ID: id, Experiment: "scenario-sweep", Group: group,
		Config: s,
		Run: func(ctx context.Context, seed int64) (runner.Result, error) {
			job := w.tr.begin("job", w.poolSpan)
			defer job.end()
			c := s.Clone()
			c.Seed = seed
			out, err := simulate(w.tr, job.id, c)
			if err != nil {
				return runner.Result{}, err
			}
			w.mu.Lock()
			if _, ok := w.first[id]; !ok {
				w.first[id] = out
			}
			w.mu.Unlock()
			// The record carries what cmd/sweep's records carry, plus the
			// digest; below 2^53 it survives the float64 round trip.
			return runner.Result{
				Summary: out.Summary, Events: out.Events, Drops: out.Drops,
				UnscheduledDrops: out.UnscheduledDrops, Counters: out.Counters,
				Hists: out.Hists, Scenario: out.Scenario,
				Extra: map[string]float64{"model_digest": float64(out.digest & (1<<53 - 1))},
			}, nil
		},
	}
}

func (w *sweep) inputs() int { return len(w.plans) }

// warmup does nothing: a sweep's 12 jobs amortize their own start-up.
func (w *sweep) warmup(*checks) {}

func (w *sweep) setup(tr *tracer, parent, _ int) (total, resolve time.Duration, err error) {
	top := tr.begin("setup", parent)
	for _, s := range w.specs {
		sp := tr.begin("scenario.Resolve", top.id)
		r, err := s.Resolve()
		resolve += sp.end()
		if err != nil {
			return 0, 0, err
		}
		sp = tr.begin("scenario.BuildFabric", top.id)
		_, _, _, _, err = scenario.BuildFabric(r)
		sp.end()
		if err != nil {
			return 0, 0, err
		}
	}
	return top.end(), resolve, nil
}

// timedSink records a span around every Put of the durable store it
// wraps.
type timedSink struct {
	runner.RecordSink
	tr     *tracer
	parent int
}

func (s timedSink) Put(rec runner.Record) error {
	sp := s.tr.begin("RecordSink.Put", s.parent)
	defer sp.end()
	return s.RecordSink.Put(rec)
}

func (w *sweep) op(tr *tracer, parent, i int, ck *checks) opResult {
	w.tr = tr
	dir := filepath.Join(w.workDir, fmt.Sprintf("sweep-%d", w.ops))
	w.ops++
	defer os.RemoveAll(dir)
	j := i % len(w.plans)
	plan := w.plans[j]
	o := opResult{sim: w.sims[j], jobs: len(plan.Specs)}
	store, err := runner.OpenStore(dir)
	if err != nil {
		ck.op(fmt.Errorf("sweep %d: %w", i, err))
		return o
	}
	defer store.Close()
	sp := tr.begin("runner.Pool.Run", parent)
	w.poolSpan = sp.id
	pool := &runner.Pool{Workers: sweepWorkers, Timeout: opTimeout,
		Store: timedSink{RecordSink: store, tr: tr, parent: sp.id}}
	recs, err := pool.Run(context.Background(), plan)
	o.wall = sp.end()
	if err != nil {
		ck.op(fmt.Errorf("sweep %d: %w", i, err))
		return o
	}
	w.last[j] = recs
	for _, rec := range recs {
		if rec.Result != nil {
			o.events += rec.Result.Events
		}
		ck.op(w.check(rec))
		if rec.Status == runner.StatusTimeout {
			o.fatal = true
		}
	}
	if !w.modeled[j] {
		w.modeled[j] = true
		w.mu.Lock()
		for _, spec := range plan.Specs {
			if out, ok := w.first[spec.ID]; ok {
				w.model.add(out)
			}
		}
		w.mu.Unlock()
	}
	return o
}

// check is the per-job gate: the job succeeded, every flow finished, the
// counters conserve packets, and the digest matches the first sweep's.
func (w *sweep) check(rec runner.Record) error {
	if !rec.OK() {
		return fmt.Errorf("job %s: %s: %s", rec.ID, rec.Status, rec.Error)
	}
	s := rec.Result.Summary
	if s.Unfinished > 0 {
		return fmt.Errorf("job %s: %d of %d flows unfinished", rec.ID, s.Unfinished, s.Flows)
	}
	if err := conservation(rec.Result.Counters); err != nil {
		return fmt.Errorf("job %s: %w", rec.ID, err)
	}
	d, ok := rec.Result.Extra["model_digest"]
	if !ok || d != math.Trunc(d) {
		return fmt.Errorf("job %s: no model digest in the record", rec.ID)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if first, ok := w.digests[rec.ID]; !ok {
		w.digests[rec.ID] = uint64(d)
	} else if first != uint64(d) {
		return fmt.Errorf("job %s: model digest %x, first sweep %x", rec.ID, uint64(d), first)
	}
	return nil
}

// countersPass sums the counters of each plan's latest records; sweep
// jobs always record them, so no extra runs are needed.
func (w *sweep) countersPass(_ *tracer, _ int, _ *checks) (counts, time.Duration) {
	total := counts{}
	var wall time.Duration
	for _, recs := range w.last {
		for _, rec := range recs {
			if rec.Result != nil {
				total.add(rec.Result.Counters)
			}
			wall += time.Duration(rec.WallMS * 1e6)
		}
	}
	return total, wall
}

func (w *sweep) modelOut() *modelOut { return &w.model }

// fabrics builds one fabric per committed scenario file.
func (w *sweep) fabrics() ([]*topo.Network, error) {
	var out []*topo.Network
	for i := 0; i < len(w.specs); i += 2 {
		_, _, n, _, err := scenario.BuildFabric(w.specs[i])
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func (w *sweep) close() { os.RemoveAll(w.workDir) }
