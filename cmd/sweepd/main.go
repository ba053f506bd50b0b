// Command sweepd is the sweep front end: a coordinator that owns one
// sweep's job table and runs it on in-process workers, on remote
// workers that connect over HTTP+JSON on a trusted loopback/LAN
// segment, or on both.
//
// The coordinator expands an experiment grid (flags or a JSON plan
// file) into jobs with per-job seeds derived from the plan seed, hands
// out time-bounded job leases, re-leases jobs whose workers miss
// heartbeats, persists every record to <out>/records.log (the
// runner.Store log cmd/figures writes too: crash-safe and resumable),
// and — when -ci-target is set — keeps adding seed replications to a
// cell until the bootstrap confidence interval of the target metric
// tightens below the target.
//
// Workers run the exact execution path of the in-process pool (same
// derived seeds, panic isolation, per-job deadlines, bounded retries),
// so a sweep aggregates byte-identically at any worker count, on one
// machine or several.
//
//	sweepd serve -bms DT,ABM -loads 0.2,0.4 -reps 3 -out results/sweep
//	sweepd serve -bms DT,ABM -loads 0.2,0.4 -reps 3 -out results/sweep -resume
//	sweepd serve -scenario scenarios/oversub-2to1.json -vary switch.bm=DT,ABM -dry-run
//	sweepd serve -plan plan.json -workers 0 -addr 127.0.0.1:7077 -out results/serve
//	sweepd work -connect 127.0.0.1:7077 -slots 4
//	sweepd status -connect 127.0.0.1:7077
//	sweepd status -out results
//
// Without -addr, serve opens no listener: the sweep is local, and any
// number of local sweeps can run side by side. Profiling: -cpuprofile,
// -memprofile, -trace, -blockprofile and -mutexprofile capture a serve
// run (see DESIGN.md, "Event engine internals").
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"abm/internal/experiments"
	"abm/internal/obs"
	"abm/internal/obs/prom"
	"abm/internal/prof"
	"abm/internal/runner"
	"abm/internal/sweepd"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's body: it dispatches the subcommand and returns the exit
// code, so deferred profile writers and store closes fire on every path.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "serve":
		return serveCmd(args[1:], stdout, stderr)
	case "work":
		return workCmd(args[1:], stderr)
	case "status":
		return statusCmd(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "sweepd: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  sweepd serve  [grid flags] -out dir [-addr host:port]  run a sweep on -workers in-process workers (plus remote ones with -addr)
  sweepd work   -connect host:port [-slots n]            work a remote coordinator's sweep
  sweepd status -connect host:port                       print a coordinator's live status
  sweepd status -out dir                                 summarize a record log offline (sweepd serve or figures -out)
`)
}

// parse parses args into fs. ok is false when the command must stop and
// return code: 0 after -h, 2 on a bad flag (fs has printed why).
func parse(fs *flag.FlagSet, args []string) (code int, ok bool) {
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0, false
	}
	return 2, err == nil
}

// serveCmd runs a sweep: grid flags describe the jobs, service flags
// the lease/replication/durability knobs.
func serveCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		planFile = fs.String("plan", "", "JSON plan file (see internal/experiments.Grid); the grid flags below are then ignored")
		name     = fs.String("name", "sweep", "sweep name (prefixes job IDs)")
		scale    = fs.String("scale", "small", "fabric scale: small, medium, paper")
		seed     = fs.Int64("seed", 1, "plan seed; per-job seeds derive from it")
		reps     = fs.Int("reps", 1, "seed replications per configuration")
		bms      = fs.String("bms", "ABM", "comma-separated buffer-management schemes")
		ccs      = fs.String("ccs", "cubic", "comma-separated congestion-control algorithms")
		loads    = fs.String("loads", "0.4", "comma-separated web-search loads")
		requests = fs.String("requests", "0.3", "comma-separated incast request fractions of the buffer")
		alphas   = fs.String("alphas", "", "comma-separated alphas (empty = scheme default)")
		qpp      = fs.Int("queues", 0, "queues per port (0 = default)")
		workload = fs.String("workload", "", "background workload: websearch (default), datamining")
		duration = fs.Float64("duration-ms", 0, "traffic duration override in milliseconds (0 = scale default)")
		shards   = fs.Int("shards", 0, "simulation shards per job (0 = 1; in-process workers are capped so shards x workers <= GOMAXPROCS)")
		timeout  = fs.Duration("timeout", 0, "per-job wall-clock timeout (0 = none)")
		scnFile  = fs.String("scenario", "", "base scenario JSON file: jobs start from it and -vary axes mutate it (the cell axes above are ignored)")
		vary     varyAxes

		addr      = fs.String("addr", "", "listen address for remote workers (empty = local sweep, no listener)")
		workers   = fs.Int("workers", runtime.NumCPU(), "in-process workers (0 = remote workers only, needs -addr)")
		retries   = fs.Int("retries", 1, "retries for jobs failing with an error (in-process workers)")
		leaseTTL  = fs.Duration("lease-ttl", 30*time.Second, "lease lifetime without a heartbeat")
		maxLeases = fs.Int("max-lease-attempts", 5, "leases per job before the coordinator records it failed")
		ciTarget  = fs.Float64("ci-target", 0, "adaptive replication: relative CI half-width target (0 = off)")
		ciMetric  = fs.String("ci-metric", "p99_incast_slowdown", "metric adaptive replication tightens")
		maxReps   = fs.Int("max-reps", 0, "adaptive replication cap per cell (0 = 4x base reps)")
		out       = fs.String("out", "sweepd-results", "output directory (records.log, telemetry/, aggregate.json)")
		resume    = fs.Bool("resume", false, "resume from an existing records.log in -out")
		dryRun    = fs.Bool("dry-run", false, "print the expanded job list with seeds and exit")
		quiet     = fs.Bool("quiet", false, "suppress per-job progress lines")
		pf        prof.Flags
		of        obs.Flags
	)
	fs.Var(&vary, "vary", "scenario-mode sweep axis as \"field.path=v1,v2,...\" (repeatable; crossed in flag order)")
	pf.AddFlagsTo(fs)
	of.AddFlagsTo(fs, true)
	if code, ok := parse(fs, args); !ok {
		return code
	}
	die := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 2
	}

	obsOpts, err := of.Validate()
	if err != nil {
		return die(err)
	}
	loadVals, err1 := floatsCSV(*loads)
	fracVals, err2 := floatsCSV(*requests)
	alphaVals, err3 := floatsCSV(*alphas)
	if err := errors.Join(err1, err2, err3); err != nil {
		return die(err)
	}
	grid := experiments.Grid{
		Name: *name, Scale: *scale, Seed: *seed, Reps: *reps,
		BMs: splitCSV(*bms), CCs: splitCSV(*ccs),
		Loads: loadVals, RequestFracs: fracVals, Alphas: alphaVals,
		QueuesPerPort: *qpp, Workload: *workload, DurationMS: *duration,
		Shards: *shards, TimeoutSec: timeout.Seconds(),
		Obs: obsOpts, Scenario: *scnFile, Vary: vary,
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
		// Telemetry flags apply on top of a plan file, so stored plans
		// can be re-traced.
		if obsOpts.Active() {
			grid.Obs = obsOpts
		}
	}
	if *dryRun {
		plan, err := grid.Plan()
		if err != nil {
			return die(err)
		}
		for i, s := range plan.Specs {
			fmt.Fprintf(stdout, "%s\tseed=%d\n", s.ID, plan.SeedOf(i))
		}
		return 0
	}
	if *workers <= 0 && *addr == "" {
		return die(fmt.Errorf("sweepd serve: -workers 0 leaves no one to run jobs without -addr for remote workers"))
	}

	stopProf, err := pf.Start()
	if err != nil {
		return die(err)
	}
	defer stopProf()

	if !*resume {
		// A fresh sweep into a dir holding an old log would silently
		// reuse its records; require the explicit flag for that.
		if _, err := os.Stat(filepath.Join(*out, "records.log")); err == nil {
			return die(fmt.Errorf("%s already holds a record log; pass -resume to continue it or choose a fresh -out", *out))
		}
	}
	store, err := runner.OpenStore(*out)
	if err != nil {
		return die(err)
	}
	defer store.Close() // error paths; the success path checks Close below

	var progress io.Writer
	if !*quiet {
		progress = stderr
	}
	c, err := sweepd.NewCoordinator(sweepd.Config{
		Grid:             &grid,
		LeaseTTL:         *leaseTTL,
		MaxLeaseAttempts: *maxLeases,
		CITarget:         *ciTarget,
		CIMetric:         *ciMetric,
		MaxReps:          *maxReps,
		Store:            store,
		Progress:         progress,
	})
	if err != nil {
		return die(err)
	}

	where := "local only"
	if *addr != "" {
		l, err := net.Listen("tcp", *addr)
		if err != nil {
			return die(err)
		}
		defer l.Close()
		go c.Serve(l)
		where = "listening on " + l.Addr().String()
	}
	// grid.Shards (not the flag) so a -plan file's shard setting also
	// caps the in-process workers against oversubscription.
	local := runner.CapWorkers(*workers, grid.Shards, stderr)
	fmt.Fprintf(stderr, "sweepd %q: %d jobs, %s, %d in-process workers -> %s\n",
		c.Plan().Name, len(c.Plan().Specs), where, local, *out)

	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < local; i++ {
		w := &sweepd.Worker{
			Dispatcher: c,
			Name:       fmt.Sprintf("local-%d", i),
			Plan:       c.Plan(),
			Retries:    *retries,
			Progress:   progress,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				fmt.Fprintf(stderr, "sweepd: %v\n", err)
			}
		}()
	}

	start := time.Now()
	if err := c.Wait(ctx); err != nil {
		return die(err)
	}
	wg.Wait()
	// Close commits the last batch of records.
	if err := store.Close(); err != nil {
		return die(err)
	}

	records := c.Records()
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
	fmt.Fprint(stdout, runner.FormatGroups(groups))
	st := store.Stats()
	fmt.Fprintf(stderr, "done in %s: %d ok (%d from log), %d failed; %d records in %d batches; aggregate -> %s\n",
		time.Since(start).Round(100*time.Millisecond), ok, cached, len(failed), st.Records, st.Batches, aggPath)
	for _, rec := range failed {
		msg, _, _ := strings.Cut(rec.Error, "\n")
		fmt.Fprintf(stderr, "  FAILED %s: %s (%s)\n", rec.ID, msg, rec.Status)
	}
	if len(failed) > 0 {
		return 1
	}
	return 0
}

// workCmd joins a remote coordinator as a worker.
func workCmd(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd work", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		connect     = fs.String("connect", "", "coordinator address (host:port or URL)")
		name        = fs.String("name", "", "worker name (default worker-<pid>)")
		slots       = fs.Int("slots", runtime.NumCPU(), "concurrent jobs")
		retries     = fs.Int("retries", 1, "retries for jobs failing with an error")
		metricsAddr = fs.String("metrics-addr", "", "serve the worker's own /metrics on this address (empty = off)")
		quiet       = fs.Bool("quiet", false, "suppress per-job progress lines")
	)
	if code, ok := parse(fs, args); !ok {
		return code
	}
	die := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *connect == "" {
		return die(fmt.Errorf("sweepd work: -connect is required"))
	}
	var progress io.Writer
	if !*quiet {
		progress = stderr
	}
	w := &sweepd.Worker{
		Dispatcher: sweepd.NewClient(*connect),
		Name:       *name,
		Slots:      *slots,
		Retries:    *retries,
		Progress:   progress,
	}
	if *metricsAddr != "" {
		l, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return die(err)
		}
		defer l.Close()
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
			var pw prom.Writer
			w.WriteMetrics(&pw)
			rw.Header().Set("Content-Type", prom.ContentType)
			rw.Write(pw.Bytes())
		})
		go http.Serve(l, mux)
	}
	if err := w.Run(context.Background()); err != nil {
		return die(err)
	}
	fmt.Fprintln(stderr, "sweepd: sweep complete, worker exiting")
	return 0
}

// statusCmd prints a coordinator's live status (-connect) or replays a
// record log (-out) for the same view offline.
func statusCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	connect := fs.String("connect", "", "coordinator address (host:port or URL)")
	out := fs.String("out", "", "offline mode: replay records.log in this directory instead of contacting a coordinator")
	if code, ok := parse(fs, args); !ok {
		return code
	}
	var (
		st  *sweepd.Status
		err error
	)
	switch {
	case *connect != "":
		st, err = sweepd.NewClient(*connect).Status()
	case *out != "":
		st, err = offlineStatus(*out)
	default:
		err = fmt.Errorf("sweepd status: -connect or -out is required")
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	printStatus(stdout, st)
	return 0
}

// printStatus renders one status snapshot, including the fleet-wide
// merged FCT-slowdown summary per group when the sweep records
// histograms.
func printStatus(w io.Writer, st *sweepd.Status) {
	fmt.Fprintf(w, "sweep %q: %d jobs — %d pending, %d leased, %d done (%d failed)",
		st.Name, st.Jobs, st.Pending, st.Leased, st.Done, st.Failed)
	if st.Finished {
		fmt.Fprint(w, "  [finished]")
	}
	fmt.Fprintln(w)
	for _, g := range st.Groups {
		line := fmt.Sprintf("  %-40s %d/%d ok", g.Group, g.OK, g.Total)
		if g.Failed > 0 {
			line += fmt.Sprintf(", %d failed", g.Failed)
		}
		if g.RelCIHalfWidth > 0 {
			line += fmt.Sprintf(", rel-CI %.4f (mean %.4g)", g.RelCIHalfWidth, g.Mean)
		}
		if g.Settled {
			line += ", settled"
		}
		fmt.Fprintln(w, line)
		if s := g.Slowdown; s != nil {
			fmt.Fprintf(w, "  %-40s slowdown p50 %.3f  p99 %.3f  p999 %.3f  (%d flows)\n",
				"", s.P50, s.P99, s.P999, s.Count)
		}
	}
	if st.Batch != nil {
		fmt.Fprintf(w, "  log: %d records in %d batches (max %d)\n",
			st.Batch.Records, st.Batch.Batches, st.Batch.MaxBatchLen)
	}
}

// offlineStatus rebuilds a status snapshot from a record log — the
// post-run path: the coordinator (or figures run) has exited, but its
// durable state answers the same questions. A log holding several
// experiments (a figures -out directory) names each group by its
// experiment too, since figures reuse group labels.
func offlineStatus(dir string) (*sweepd.Status, error) {
	if _, err := os.Stat(filepath.Join(dir, "records.log")); err != nil {
		return nil, err
	}
	store, err := runner.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	recs, err := store.Latest()
	if err != nil {
		return nil, err
	}
	var names []string
	for _, rec := range recs {
		if rec.Experiment != "" && !slices.Contains(names, rec.Experiment) {
			names = append(names, rec.Experiment)
		}
	}
	sort.Strings(names)
	st := &sweepd.Status{Name: strings.Join(names, ","), Finished: true}
	byGroup := make(map[string][]runner.Record)
	for _, rec := range recs {
		st.Jobs++
		st.Done++
		if !rec.OK() {
			st.Failed++
		}
		group := rec.ID
		if rec.Group != "" {
			group = rec.Group
			if len(names) > 1 {
				group = rec.Experiment + "/" + group
			}
		}
		byGroup[group] = append(byGroup[group], rec)
	}
	groups := make([]string, 0, len(byGroup))
	for group := range byGroup {
		groups = append(groups, group)
	}
	sort.Strings(groups)
	for _, group := range groups {
		gs := sweepd.GroupStatus{Group: group, Settled: true}
		var ok []runner.Record
		for _, rec := range byGroup[group] {
			gs.Total++
			if rec.OK() {
				gs.OK++
				ok = append(ok, rec)
			} else {
				gs.Failed++
			}
		}
		gs.Slowdown = sweepd.SlowdownOf(ok)
		st.Groups = append(st.Groups, gs)
	}
	return st, nil
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
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func floatsCSV(s string) ([]float64, error) {
	var out []float64
	for _, f := range splitCSV(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}
