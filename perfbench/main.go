// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulator in this process, checks every operation's
// output, and prints the metrics BENCHMARK.json declares: the end-to-end
// set with -trace 0, the per-layer split with -trace 1. The last line of
// standard output is one JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// and every invocation also writes a new dated result file (metrics plus
// provenance) under -out, never replacing an earlier one. README.md in
// this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation. The zero values of the size fields select
// the benchmark's defaults; the smoke test shrinks them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root: scenarios/ and the sources live here
	out      string // directory for dated result files; "" writes none

	window   float64 // fig6 traffic window in simulated seconds
	subSeeds int     // fig6 inputs per cycle
	reps     int     // scenario-sweep replications of the scenario grid
	sweepDur float64 // scenario-sweep per-job window override (0 keeps each file's)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 42, "seed every input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long to measure, in seconds (at least one full cycle of inputs always runs)")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the traced per-layer split")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.out, "out", ".bench_results", "directory for dated result files (empty: none)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if cfg.out != "" {
		path, err := saveResult(cfg, res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "perfbench: result saved to", path)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one invocation measured.
type result struct {
	Provenance provenance        `json:"provenance"`
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	// Extra holds what an untraced run prints beside the end-to-end
	// metrics without reporting it as one: the model outputs and the
	// cycle's event count and cost per event.
	Extra map[string]metric `json:"extra,omitempty"`
	// Traced runs only: the profile's module buckets and the spans.
	Profile    map[string]float64   `json:"profile,omitempty"`
	SpanTotals map[string]spanTotal `json:"span_totals,omitempty"`
	Spans      []span               `json:"spans,omitempty"`
}

// summary is the driver-facing last line.
func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// checks tallies operations and the reasons any failed.
type checks struct {
	attempted, failed int
	failures          []string
}

// op counts one operation, failed when err is non-nil.
func (c *checks) op(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, err.Error())
		}
	}
}

// run executes the configured workload and prints its metrics, one per
// line with the unit, before the caller prints the JSON summary.
func run(cfg config, w io.Writer) (*result, error) {
	wl, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if c, ok := wl.(interface{ close() }); ok {
		defer c.close()
	}
	prov := collectProvenance(cfg)
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v num_cpu=%d gomaxprocs=%d go=%s rev=%s\n",
		cfg.workload, cfg.seed, cfg.trace, prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion, prov.GitRev)

	var ck checks
	res := &result{Provenance: prov, Workload: cfg.workload, Trace: cfg.trace}
	if cfg.trace {
		res.Metrics, res.Profile, res.Spans, err = traced(cfg, wl, &ck)
	} else {
		res.Metrics, res.Extra, err = endToEnd(cfg, wl, &ck)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Failures = ck.attempted, ck.failed, ck.failures
	res.Correct = ck.failed == 0 && ck.attempted > 0
	printMetrics(w, res.Metrics)
	printMetrics(w, res.Extra)
	if res.Spans != nil {
		res.SpanTotals = spanTotals(res.Spans)
		for _, k := range sortedKeys(res.SpanTotals) {
			t := res.SpanTotals[k]
			fmt.Fprintf(w, "span %-30s n=%d total_ms=%.1f self_ms=%.1f\n", k, t.Count, t.TotalMs, t.SelfMs)
		}
	}
	if ck.attempted > 0 {
		fmt.Fprintf(w, "%-32s %g (%d of %d operations)\n", "failed_share",
			float64(ck.failed)/float64(ck.attempted), ck.failed, ck.attempted)
	}
	for _, f := range ck.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	return res, nil
}

func printMetrics(w io.Writer, ms map[string]metric) {
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(w, "%-32s %.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// saveResult writes the result as a new dated file; an existing file is
// never replaced, so every measurement stays on record.
func saveResult(cfg config, res *result) (string, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	stamp := time.Now().UTC().Format("2006-01-02T150405Z")
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s-%s-seed%d-trace%d", stamp, cfg.workload, cfg.seed, btoi(cfg.trace))
		if i > 0 {
			name += fmt.Sprintf("-%d", i)
		}
		path := filepath.Join(cfg.out, name+".json")
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		if _, err := f.Write(append(data, '\n')); err != nil {
			f.Close()
			return "", err
		}
		return path, f.Close()
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// provenance identifies the box and the code a result came from.
type provenance struct {
	Date         string  `json:"date"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	CPU          string  `json:"cpu,omitempty"`
	GitRev       string  `json:"git_rev"`
	SourceDigest string  `json:"source_digest"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
}

func collectProvenance(cfg config) provenance {
	return provenance{
		Date:         time.Now().UTC().Format(time.RFC3339),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPU:          cpuModel(),
		GitRev:       gitRev(cfg.root),
		SourceDigest: sourceDigest(cfg.root),
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
	}
}
