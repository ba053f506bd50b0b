// Command figures regenerates the paper's evaluation tables: one TSV
// per figure (4 through 12, plus the ablation and alpha-sensitivity
// extras), written to stdout or a directory. Execution rides on
// internal/runner: figures are jobs on a worker pool with panic
// isolation and progress reporting, and with -out every simulated cell
// additionally lands as one record in <out>/records.log — the
// runner.Store log sweepd writes too, so `sweepd status -out <out>`
// summarizes a figures run. A re-run into the same -out reuses every
// cell whose stored record matches its seed and configuration.
//
// Profiling: -cpuprofile, -memprofile and -trace capture the run for
// performance work on the simulator core (see DESIGN.md, "Event engine
// internals").
//
// Examples:
//
//	figures -fig fig6 -scale medium
//	figures -fig all -scale small -out results/ -workers 4
//	figures -fig fig6 -scale small -cpuprofile cpu.out
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"abm/internal/experiments"
	"abm/internal/obs"
	"abm/internal/prof"
	"abm/internal/runner"
	"abm/internal/scenario"
)

func main() { os.Exit(run()) }

// run is main's body with normal control flow, so deferred profile
// writers fire on every exit path.
func run() int {
	var (
		fig     = flag.String("fig", "all", "figure id (fig4..fig12, ablation, alphasweep) or 'all'")
		scale   = flag.String("scale", "small", "fabric scale: small, medium, paper")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("out", "", "output directory (default: stdout, figures sequential)")
		workers = flag.Int("workers", runtime.NumCPU(), "parallel figure workers (with -out)")
		shards  = flag.Int("shards", 0, "simulation shards per cell (0 = 1; clamped to the fabric's leaf count; output is identical at every count)")
		noJSON  = flag.Bool("no-json", false, "with -out, skip the per-cell record log")
		scn     = flag.String("scenario", "", "overlay this scenario file's fabric shape (dimensions, link rates, delay) onto every cell; -scale still picks durations")
		pf      prof.Flags
		of      obs.Flags
	)
	pf.AddFlags()
	of.AddFlags(true)
	flag.Parse()

	obsOpts, err := of.Validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProf()

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var fabric *scenario.Fabric
	if *scn != "" {
		s, err := scenario.Load(*scn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fabric = &s.Fabric
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = experiments.FigureIDs
	}

	if *out == "" {
		// Stdout mode: figures render sequentially (their tables would
		// interleave otherwise); each figure's cells still run in
		// parallel on the pool.
		for _, id := range ids {
			opts := &experiments.RunOptions{Shards: *shards, Obs: obsOpts, Fabric: fabric}
			if err := experiments.RunFigureOpts(opts, id, sc, *seed, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		return 0
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var store *runner.Store
	if !*noJSON {
		store, err = runner.OpenStore(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	// One pool job per figure; each figure's cells run on its own inner
	// pool with one worker, so total parallelism stays at -workers and
	// per-cell records land in the shared store as they complete.
	plan := &runner.Plan{Name: "figures"}
	for _, id := range ids {
		id := id
		plan.Add(runner.Spec{
			ID:         "figures/" + id,
			Experiment: id,
			Seed:       *seed,
			Run: func(_ context.Context, _ int64) (runner.Result, error) {
				opts := &experiments.RunOptions{Workers: 1, Shards: *shards, Store: store, Obs: obsOpts, Fabric: fabric}
				f, err := os.Create(filepath.Join(*out, id+".tsv"))
				if err != nil {
					return runner.Result{}, err
				}
				err = experiments.RunFigureOpts(opts, id, sc, *seed, f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				return runner.Result{}, err
			},
		})
	}
	// Each figure job runs its cells one at a time (inner Workers: 1),
	// so a figure's goroutine footprint is its shard count; the outer
	// pool caps figure-level parallelism accordingly.
	pool := &runner.Pool{Workers: *workers, JobShards: *shards, Progress: os.Stderr}
	records, err := pool.Run(context.Background(), plan)
	if store != nil {
		// Close makes the last batch of records durable.
		if cerr := store.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	failed := runner.Failed(records)
	for _, rec := range records {
		if rec.OK() {
			fmt.Printf("%s written in %.1fs\n", rec.Experiment, rec.WallMS/1e3)
		} else {
			fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", rec.Experiment, rec.Error, rec.Status)
		}
	}
	if len(failed) > 0 {
		return 1
	}
	return 0
}
