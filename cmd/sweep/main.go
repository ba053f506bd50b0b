// Command sweep drives a multi-seed experiment grid through the
// internal/runner pool: it expands a plan (flags or a JSON plan file)
// into the cross product of buffer-management schemes, congestion
// controls, loads, request sizes and alphas, replicated across derived
// seeds, runs the jobs on parallel fault-isolated workers, persists one
// JSON record per job under -out, and aggregates replications into
// mean/p95/p99 with bootstrap confidence intervals.
//
// Per-job seeds derive from the plan seed and the job's index, so a
// sweep's results are identical at any -workers value, and a re-run
// with -resume skips every job the manifest already records as
// complete.
//
// Profiling: -cpuprofile, -memprofile and -trace capture the run for
// performance work on the simulator core (see DESIGN.md, "Event engine
// internals").
//
// Scenario mode starts every job from a declarative scenario file and
// varies fields by dotted path instead of the fixed cell axes:
//
//	sweep -scenario scenarios/oversub-2to1.json \
//	      -vary switch.bm=DT,ABM -vary workload.load=0.4,0.8 -reps 3
//
// With -connect the process instead joins a cmd/sweepd coordinator as
// a worker: the coordinator owns the grid, this process just executes
// leased jobs on the same code path.
//
// Examples:
//
//	sweep -bms DT,ABM -ccs cubic -loads 0.2,0.4,0.6,0.8 -reps 3 -out results/sweep
//	sweep -plan plan.json -out results/sweep -workers 8
//	sweep -plan plan.json -out results/sweep -resume
//	sweep -connect 127.0.0.1:7077 -workers 4
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"abm/internal/experiments"
	"abm/internal/obs"
	"abm/internal/prof"
	"abm/internal/runner"
	"abm/internal/sweepd"
)

func main() { os.Exit(run()) }

// run is main's body with normal control flow, so deferred profile
// writers and the store close fire on every exit path.
func run() int {
	var (
		planFile = flag.String("plan", "", "JSON plan file (see internal/experiments.Grid); flags below override nothing when set")
		name     = flag.String("name", "sweep", "sweep name (prefixes job IDs)")
		scale    = flag.String("scale", "small", "fabric scale: small, medium, paper")
		seed     = flag.Int64("seed", 1, "plan seed; per-job seeds derive from it")
		reps     = flag.Int("reps", 1, "seed replications per configuration")
		bms      = flag.String("bms", "ABM", "comma-separated buffer-management schemes")
		ccs      = flag.String("ccs", "cubic", "comma-separated congestion-control algorithms")
		loads    = flag.String("loads", "0.4", "comma-separated web-search loads")
		requests = flag.String("requests", "0.3", "comma-separated incast request fractions of the buffer")
		alphas   = flag.String("alphas", "", "comma-separated alphas (empty = scheme default)")
		qpp      = flag.Int("queues", 0, "queues per port (0 = default)")
		workload = flag.String("workload", "", "background workload: websearch (default), datamining")
		duration = flag.Float64("duration-ms", 0, "traffic duration override in milliseconds (0 = scale default)")
		scnFile  = flag.String("scenario", "", "base scenario JSON file: jobs start from it and -vary axes mutate it (the cell axes above are ignored)")
		vary     varyAxes

		connect     = flag.String("connect", "", "join a sweepd coordinator at this address as a worker instead of running a local sweep (uses -workers slots; all grid flags are ignored)")
		out         = flag.String("out", "sweep-results", "result store directory (jobs/, manifest.jsonl, aggregate.json)")
		workers     = flag.Int("workers", runtime.NumCPU(), "parallel workers")
		shards      = flag.Int("shards", 0, "simulation shards per job (0 = 1; workers are capped so shards x workers <= GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, "per-job wall-clock timeout (0 = none)")
		retries     = flag.Int("retries", 1, "retries for jobs failing with an error")
		resume      = flag.Bool("resume", false, "skip jobs already completed in the -out manifest")
		dryRun      = flag.Bool("dry-run", false, "print the expanded job list and exit")
		injectPanic = flag.String("inject-panic", "", "make jobs whose ID contains this substring panic (fault-injection testing)")
		pf          prof.Flags
		of          obs.Flags
	)
	flag.Var(&vary, "vary", "scenario-mode sweep axis as \"field.path=v1,v2,...\" (repeatable; crossed in flag order)")
	pf.AddFlags()
	of.AddFlags(true)
	flag.Parse()

	obsOpts, err := of.Validate()
	if err != nil {
		return die(err)
	}

	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProf()

	if *connect != "" {
		// Worker mode: the coordinator owns the grid; this process just
		// executes leases until the sweep is done.
		w := &sweepd.Worker{
			Dispatcher: sweepd.NewClient(*connect),
			Slots:      *workers,
			Timeout:    *timeout,
			Retries:    *retries,
			Progress:   os.Stderr,
		}
		if err := w.Run(context.Background()); err != nil {
			return die(err)
		}
		fmt.Fprintln(os.Stderr, "sweep: coordinator reports the sweep done, exiting")
		return 0
	}

	grid := experiments.Grid{
		Name: *name, Scale: *scale, Seed: *seed, Reps: *reps,
		BMs: splitCSV(*bms), CCs: splitCSV(*ccs),
		Loads: floatsCSV(*loads), RequestFracs: floatsCSV(*requests), Alphas: floatsCSV(*alphas),
		QueuesPerPort: *qpp, Workload: *workload, DurationMS: *duration,
		Shards:     *shards,
		TimeoutSec: timeout.Seconds(),
		Obs:        obsOpts,
		Scenario:   *scnFile,
		Vary:       vary,
	}
	if len(vary) > 0 && *scnFile == "" {
		return die(fmt.Errorf("-vary requires -scenario (axes are scenario field paths)"))
	}
	if *planFile != "" {
		data, err := os.ReadFile(*planFile)
		if err != nil {
			return die(err)
		}
		grid = experiments.Grid{}
		if err := json.Unmarshal(data, &grid); err != nil {
			return die(fmt.Errorf("%s: %w", *planFile, err))
		}
		// Telemetry flags apply on top of a plan file (the one exception
		// to "flags override nothing"), so stored plans can be re-traced.
		if obsOpts.Active() {
			grid.Obs = obsOpts
		}
	}

	plan, err := grid.Plan()
	if err != nil {
		return die(err)
	}
	if *injectPanic != "" {
		for i := range plan.Specs {
			if strings.Contains(plan.Specs[i].ID, *injectPanic) {
				id := plan.Specs[i].ID
				plan.Specs[i].Run = func(context.Context, int64) (runner.Result, error) {
					panic(fmt.Sprintf("injected panic in %s", id))
				}
			}
		}
	}
	if *dryRun {
		for i, s := range plan.Specs {
			fmt.Printf("%s\tseed=%d\n", s.ID, plan.SeedFor(i))
		}
		return 0
	}

	if !*resume {
		// A fresh sweep into a dir holding an old manifest would silently
		// skip jobs; require the explicit flag for that behavior.
		if _, err := os.Stat(filepath.Join(*out, "manifest.jsonl")); err == nil {
			return die(fmt.Errorf("%s already holds a sweep manifest; pass -resume to continue it or choose a fresh -out", *out))
		}
	}
	store, err := runner.OpenStore(*out)
	if err != nil {
		return die(err)
	}
	defer store.Close()

	fmt.Fprintf(os.Stderr, "sweep %q: %d jobs on %d workers -> %s\n",
		plan.Name, len(plan.Specs), *workers, *out)
	start := time.Now()
	// grid.Shards (not the flag) so a -plan file's shard setting also
	// caps the worker count against oversubscription.
	pool := &runner.Pool{
		Workers: *workers, JobShards: grid.Shards,
		Timeout: *timeout, Retries: *retries,
		Progress: os.Stderr, Store: store,
	}
	records, err := pool.Run(context.Background(), plan)
	if err != nil {
		return die(err)
	}

	groups := runner.Aggregate(records)
	aggPath := filepath.Join(*out, "aggregate.json")
	data, err := json.MarshalIndent(groups, "", "  ")
	if err != nil {
		return die(err)
	}
	if err := os.WriteFile(aggPath, append(data, '\n'), 0o644); err != nil {
		return die(err)
	}

	ok, cached := 0, 0
	for _, rec := range records {
		if rec.OK() {
			ok++
		}
		if rec.Cached {
			cached++
		}
	}
	failed := runner.Failed(records)
	fmt.Print(runner.FormatGroups(groups))
	fmt.Fprintf(os.Stderr, "done in %s: %d ok (%d from manifest), %d failed; aggregate -> %s\n",
		time.Since(start).Round(100*time.Millisecond), ok, cached, len(failed), aggPath)
	for _, rec := range failed {
		fmt.Fprintf(os.Stderr, "  FAILED %s: %s (%s)\n", rec.ID, firstLine(rec.Error), rec.Status)
	}
	if len(failed) > 0 {
		return 1
	}
	return 0
}

// die reports a fatal setup error; run returns its value so deferred
// cleanups still execute.
func die(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// varyAxes parses repeatable -vary "field.path=v1,v2" flags into
// scenario-mode grid axes, preserving flag order (axis order determines
// job IDs and therefore derived seeds).
type varyAxes []experiments.PathAxis

func (v *varyAxes) String() string {
	var parts []string
	for _, a := range *v {
		parts = append(parts, a.Path+"="+strings.Join(a.Values, ","))
	}
	return strings.Join(parts, " ")
}

func (v *varyAxes) Set(s string) error {
	path, vals, ok := strings.Cut(s, "=")
	if !ok || path == "" {
		return fmt.Errorf("want field.path=v1,v2,..., got %q", s)
	}
	values := splitCSV(vals)
	if len(values) == 0 {
		return fmt.Errorf("axis %q has no values", path)
	}
	*v = append(*v, experiments.PathAxis{Path: path, Values: values})
	return nil
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func floatsCSV(s string) []float64 {
	var out []float64
	for _, f := range splitCSV(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			fatal(fmt.Errorf("bad number %q: %w", f, err))
		}
		out = append(out, v)
	}
	return out
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
