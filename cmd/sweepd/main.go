// Command sweepd is the distributed sweep service: a coordinator that
// owns one sweep's job table and leases jobs to workers over HTTP+JSON
// on a trusted loopback/LAN segment.
//
// The coordinator expands the same grid cmd/sweep runs (flags or a
// JSON plan file), hands out time-bounded job leases, re-leases jobs
// whose workers miss heartbeats, persists every record to a durable
// append-only log (crash-safe, resumable), and — when -ci-target is
// set — keeps adding seed replications to a cell until the bootstrap
// confidence interval of the target metric tightens below the target.
//
// Workers are thin wrappers around the exact execution path the
// in-process pool uses (same derived seeds, panic isolation, per-job
// deadlines, bounded retries), so a sweep run by one coordinator and N
// workers — on one machine or several — aggregates byte-identically to
// cmd/sweep at the same seed.
//
//	sweepd serve -scenario scenarios/oversub-2to1.json \
//	       -vary switch.bm=DT,ABM -reps 3 -addr 127.0.0.1:7077 -out results/serve
//	sweepd work -connect 127.0.0.1:7077 -slots 4
//	sweepd status -connect 127.0.0.1:7077
//
// serve also runs -workers in-process workers (default NumCPU), so a
// single invocation with no remote workers behaves exactly like
// cmd/sweep, down to the aggregate bytes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"abm/internal/experiments"
	"abm/internal/obs"
	"abm/internal/obs/prom"
	"abm/internal/runner"
	"abm/internal/sweepd"
)

func main() { os.Exit(run()) }

func run() int {
	if len(os.Args) < 2 {
		usage()
		return 2
	}
	switch os.Args[1] {
	case "serve":
		return serveCmd(os.Args[2:])
	case "work":
		return workCmd(os.Args[2:])
	case "status":
		return statusCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "sweepd: unknown subcommand %q\n", os.Args[1])
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  sweepd serve  [grid flags] -addr host:port -out dir   run the coordinator (plus -workers in-process workers)
  sweepd work   -connect host:port [-slots n]           work a remote coordinator's sweep
  sweepd status -connect host:port                      print a coordinator's live status
  sweepd status -out dir                                replay a finished sweep's record log offline
`)
}

// serveCmd runs the coordinator: grid flags mirror cmd/sweep, service
// flags add the lease/replication/durability knobs.
func serveCmd(args []string) int {
	fs := flag.NewFlagSet("sweepd serve", flag.ExitOnError)
	var (
		planFile = fs.String("plan", "", "JSON plan file (see internal/experiments.Grid)")
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
		shards   = fs.Int("shards", 0, "simulation shards per job (0 = 1)")
		timeout  = fs.Duration("timeout", 0, "per-job wall-clock timeout (0 = none)")
		scnFile  = fs.String("scenario", "", "base scenario JSON file; -vary axes mutate it by field path")
		vary     varyAxes

		addr       = fs.String("addr", "127.0.0.1:7077", "listen address for worker connections")
		workers    = fs.Int("workers", runtime.NumCPU(), "in-process workers (0 = remote workers only)")
		retries    = fs.Int("retries", 1, "retries for jobs failing with an error (in-process workers)")
		leaseTTL   = fs.Duration("lease-ttl", 30*time.Second, "lease lifetime without a heartbeat")
		maxLeases  = fs.Int("max-lease-attempts", 5, "leases per job before the coordinator records it failed")
		ciTarget   = fs.Float64("ci-target", 0, "adaptive replication: relative CI half-width target (0 = off)")
		ciMetric   = fs.String("ci-metric", "p99_incast_slowdown", "metric adaptive replication tightens")
		maxReps    = fs.Int("max-reps", 0, "adaptive replication cap per cell (0 = 4x base reps)")
		out        = fs.String("out", "sweepd-results", "output directory (records.log, aggregate.json)")
		resume     = fs.Bool("resume", false, "resume from an existing records.log in -out")
		batch      = fs.Int("batch", 64, "record-log commit batch size")
		batchDelay = fs.Duration("batch-delay", 200*time.Millisecond, "record-log commit deadline")
		quiet      = fs.Bool("quiet", false, "suppress per-job progress lines")
		of         obs.Flags
	)
	fs.Var(&vary, "vary", "scenario-mode sweep axis as \"field.path=v1,v2,...\" (repeatable)")
	of.AddFlagsTo(fs, true)
	fs.Parse(args)

	obsOpts, err := of.Validate()
	if err != nil {
		return die(err)
	}
	grid := experiments.Grid{
		Name: *name, Scale: *scale, Seed: *seed, Reps: *reps,
		BMs: splitCSV(*bms), CCs: splitCSV(*ccs),
		Loads: floatsCSV(*loads), RequestFracs: floatsCSV(*requests), Alphas: floatsCSV(*alphas),
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
		if obsOpts.Active() {
			grid.Obs = obsOpts
		}
	}

	logPath := filepath.Join(*out, "records.log")
	if !*resume {
		if _, err := os.Stat(logPath); err == nil {
			return die(fmt.Errorf("%s already holds a record log; pass -resume to continue it or choose a fresh -out", *out))
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return die(err)
	}
	recLog, err := sweepd.OpenFileLog(logPath)
	if err != nil {
		return die(err)
	}
	store := sweepd.NewStore(recLog, *batch, *batchDelay)
	// Worker-shipped telemetry bundles land beside the record log.
	store.TelemetryDir = filepath.Join(*out, "telemetry")
	defer store.Close()

	var progress *os.File
	if !*quiet {
		progress = os.Stderr
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

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return die(err)
	}
	defer l.Close()
	go c.Serve(l)

	fmt.Fprintf(os.Stderr, "sweepd %q: %d jobs, listening on %s, %d in-process workers -> %s\n",
		c.Plan().Name, len(c.Plan().Specs), l.Addr(), *workers, *out)

	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < *workers; i++ {
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
				fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
			}
		}()
	}

	start := time.Now()
	if err := c.Wait(ctx); err != nil {
		return die(err)
	}
	wg.Wait()
	if err := store.Flush(); err != nil {
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
	fmt.Print(runner.FormatGroups(groups))
	st := store.Stats()
	fmt.Fprintf(os.Stderr, "done in %s: %d ok (%d from log), %d failed; %d records in %d batches; aggregate -> %s\n",
		time.Since(start).Round(100*time.Millisecond), ok, cached, len(failed), st.Records, st.Batches, aggPath)
	for _, rec := range failed {
		fmt.Fprintf(os.Stderr, "  FAILED %s: %s (%s)\n", rec.ID, firstLine(rec.Error), rec.Status)
	}
	if len(failed) > 0 {
		return 1
	}
	return 0
}

// workCmd joins a remote coordinator as a worker.
func workCmd(args []string) int {
	fs := flag.NewFlagSet("sweepd work", flag.ExitOnError)
	var (
		connect     = fs.String("connect", "", "coordinator address (host:port or URL)")
		name        = fs.String("name", "", "worker name (default worker-<pid>)")
		slots       = fs.Int("slots", runtime.NumCPU(), "concurrent jobs")
		retries     = fs.Int("retries", 1, "retries for jobs failing with an error")
		metricsAddr = fs.String("metrics-addr", "", "serve the worker's own /metrics on this address (empty = off)")
		quiet       = fs.Bool("quiet", false, "suppress per-job progress lines")
	)
	fs.Parse(args)
	if *connect == "" {
		return die(fmt.Errorf("sweepd work: -connect is required"))
	}
	var progress *os.File
	if !*quiet {
		progress = os.Stderr
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
	fmt.Fprintln(os.Stderr, "sweepd: sweep complete, worker exiting")
	return 0
}

// statusCmd prints a coordinator's live status (-connect) or replays a
// finished sweep's record log (-out) for the same view offline.
func statusCmd(args []string) int {
	fs := flag.NewFlagSet("sweepd status", flag.ExitOnError)
	connect := fs.String("connect", "", "coordinator address (host:port or URL)")
	out := fs.String("out", "", "offline mode: replay records.log in this directory instead of contacting a coordinator")
	fs.Parse(args)
	switch {
	case *connect != "":
		st, err := sweepd.NewClient(*connect).Status()
		if err != nil {
			return die(err)
		}
		printStatus(st)
	case *out != "":
		st, err := offlineStatus(*out)
		if err != nil {
			return die(err)
		}
		printStatus(st)
	default:
		return die(fmt.Errorf("sweepd status: -connect or -out is required"))
	}
	return 0
}

// printStatus renders one status snapshot, including the fleet-wide
// merged FCT-slowdown summary per group when the sweep records
// histograms.
func printStatus(st *sweepd.Status) {
	fmt.Printf("sweep %q: %d jobs — %d pending, %d leased, %d done (%d failed)",
		st.Name, st.Jobs, st.Pending, st.Leased, st.Done, st.Failed)
	if st.Finished {
		fmt.Print("  [finished]")
	}
	fmt.Println()
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
		fmt.Println(line)
		if s := g.Slowdown; s != nil {
			fmt.Printf("  %-40s slowdown p50 %.3f  p99 %.3f  p999 %.3f  (%d flows)\n",
				"", s.P50, s.P99, s.P999, s.Count)
		}
	}
	if st.Batch != nil {
		fmt.Printf("  log: %d records in %d batches (max %d)\n",
			st.Batch.Records, st.Batch.Batches, st.Batch.MaxBatchLen)
	}
}

// offlineStatus rebuilds a status snapshot from a sweep's record log —
// the post-run path: the coordinator has exited, but its durable state
// answers the same questions.
func offlineStatus(dir string) (*sweepd.Status, error) {
	logPath := filepath.Join(dir, "records.log")
	recLog, err := sweepd.OpenFileLog(logPath)
	if err != nil {
		return nil, err
	}
	defer recLog.Close()
	recs, err := recLog.Replay()
	if err != nil {
		return nil, err
	}
	// Latest-entry-wins per job, like the resume path.
	latest := make(map[string]runner.Record)
	var order []string
	for _, rec := range recs {
		if _, seen := latest[rec.ID]; !seen {
			order = append(order, rec.ID)
		}
		latest[rec.ID] = rec
	}
	st := &sweepd.Status{Finished: true}
	byGroup := make(map[string][]runner.Record)
	var groupOrder []string
	for _, id := range order {
		rec := latest[id]
		if st.Name == "" && rec.Experiment != "" {
			st.Name = rec.Experiment
		}
		st.Jobs++
		st.Done++
		if !rec.OK() {
			st.Failed++
		}
		group := rec.Group
		if group == "" {
			group = rec.ID
		}
		if _, seen := byGroup[group]; !seen {
			groupOrder = append(groupOrder, group)
		}
		byGroup[group] = append(byGroup[group], rec)
	}
	sort.Strings(groupOrder)
	for _, group := range groupOrder {
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

func die(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// varyAxes mirrors cmd/sweep's repeatable -vary flag.
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
