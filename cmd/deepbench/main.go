// Command deepbench regenerates every table/figure of the paper
// reproduction through the public deep SDK. With no flags it runs all
// experiments serially and prints aligned tables — byte-identical to
// the historical output; flags select subsets, output formats,
// parallelism and workload overrides.
//
//	deepbench                      # all experiments, aligned tables
//	deepbench -run E01,E08         # two experiments
//	deepbench -csv -run E04        # machine-readable series
//	deepbench -json -parallel 8    # full registry as JSON, 8 workers
//	deepbench -seed 7 -scale 2     # reseeded, double-size workloads
//	deepbench -fidelity flow       # flow-level fabric fast path
//	deepbench -energy -run E15     # joules / GFlop/W columns
//	deepbench -list                # show the registry
//	deepbench -bench 5 -run E15    # wall-clock benchmark, best of 5
//	deepbench -bench 3 -json       # benchmark all, write BENCH_<id>.json
//	deepbench -run E13 -trace t.json -metrics m.csv   # observability exports
//	deepbench -store results -resume   # resumable sweep: skip stored points
//
// -store writes each finished point as the record deepd stores for the
// job {"experiment": id} with the same run knobs: the same content key
// (serve.JobSpec.ContentKey) and the same bytes (serve.ExperimentEntry).
// A deepd booted on the directory serves a deepbench sweep from it, and
// -resume replays points deepd computed. Stores written before
// deepbench shared deepd's record hold points under another key; each
// recomputes once, and deepstore prune reclaims the old records.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/deep"
	"repro/internal/expt"
	"repro/internal/serve"
	"repro/internal/store"
)

// benchResult is the wire form of one BENCH_<id>.json file, consumed
// by cmd/benchguard in CI to catch wall-clock regressions. Joules is
// the experiment's machine-readable energy total (non-zero only for
// experiments that publish one, e.g. E16) so energy regressions gate
// CI like time regressions do. GoMaxProcs and Domains record the
// host parallelism and the simulation-kernel domain count the timing
// was taken at; Speedup carries the -speedup curve.
type benchResult struct {
	ID         string         `json:"id"`
	Title      string         `json:"title"`
	Fidelity   string         `json:"fidelity"`
	Runs       int            `json:"runs"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Domains    int            `json:"domains,omitempty"`
	MaxNodes   int            `json:"max_nodes,omitempty"`
	NsPerOp    int64          `json:"ns_per_op"`
	MsPerOp    float64        `json:"ms_per_op"`
	Joules     float64        `json:"joules,omitempty"`
	Speedup    []speedupPoint `json:"speedup,omitempty"`
}

// speedupPoint is one domain count of a -speedup curve; Speedup is
// relative to the curve's first entry (conventionally K=1, the exact
// sequential kernel). Windows and BlockedFrac come from the
// partitioned kernel's summary counters (kernel_windows and the
// blocked share of every domain-window slot) — zero for sequential
// points and experiments without kernel counters.
type speedupPoint struct {
	Domains     int     `json:"domains"`
	MsPerOp     float64 `json:"ms_per_op"`
	Speedup     float64 `json:"speedup"`
	Windows     uint64  `json:"windows,omitempty"`
	BlockedFrac float64 `json:"blocked_frac,omitempty"`
}

// benchKey names the BENCH file for a runner configuration:
// non-default kernel configurations get their own files (and their
// own baseline keys) so they never shadow the default timing.
func benchKey(id string, domains, maxWindow, maxNodes int) string {
	if domains > 1 {
		id = fmt.Sprintf("%s_d%d", id, domains)
	}
	if maxWindow > 1 {
		id = fmt.Sprintf("%s_w%d", id, maxWindow)
	}
	if maxNodes > 0 {
		id = fmt.Sprintf("%s_n%d", id, maxNodes)
	}
	return id
}

// timeBest runs one experiment reps times and returns the best
// wall-clock duration plus the last table's machine-readable summary.
func timeBest(ctx context.Context, runner *deep.Runner, id string, reps int) (time.Duration, map[string]float64, error) {
	best := time.Duration(0)
	var summary map[string]float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		rep, err := runner.Run(ctx, id)
		if err != nil {
			return 0, nil, fmt.Errorf("bench %s: %w", id, err)
		}
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
		if t := rep.Results[0].Table; t != nil {
			summary = t.Summary
		}
	}
	return best, summary, nil
}

// runBench times each experiment over reps repetitions (best-of) and
// either prints a table or writes BENCH_<key>.json files into dir.
// A non-empty curve re-times each experiment at every listed domain
// count and records the speedup relative to the first entry.
func runBench(ctx context.Context, stdout io.Writer, runner *deep.Runner, ids []string, reps int, asJSON bool, dir string, curve []int) error {
	if len(ids) == 0 {
		ids = deep.ExperimentIDs()
	}
	infos := map[string]deep.ExperimentInfo{}
	for _, e := range deep.Experiments() {
		infos[e.ID] = e
	}
	// Key and record the domain count the kernel runs with, in the
	// canonical spec form: 0 for sequential, GOMAXPROCS for -1.
	domains := (&expt.Config{Domains: runner.Domains}).Spec().Domains
	var results []benchResult
	for _, id := range ids {
		best, summary, err := timeBest(ctx, runner, id, reps)
		if err != nil {
			return err
		}
		res := benchResult{
			ID:         benchKey(id, domains, runner.MaxWindow, runner.MaxNodes),
			Title:      infos[id].Title,
			Fidelity:   runner.Fidelity.String(),
			Runs:       reps,
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Domains:    domains,
			MaxNodes:   runner.MaxNodes,
			NsPerOp:    best.Nanoseconds(),
			MsPerOp:    float64(best.Nanoseconds()) / 1e6,
			Joules:     summary["joules"],
		}
		var refMs float64
		for _, k := range curve {
			kr := *runner
			kr.Domains = k
			kbest, ksum, err := timeBest(ctx, &kr, id, reps)
			if err != nil {
				return err
			}
			ms := float64(kbest.Nanoseconds()) / 1e6
			if refMs == 0 {
				refMs = ms
			}
			p := speedupPoint{
				Domains: k,
				MsPerOp: ms,
				Speedup: refMs / ms,
				Windows: uint64(ksum["kernel_windows"]),
			}
			if slots := ksum["kernel_windows"] * ksum["domains"]; slots > 0 {
				p.BlockedFrac = ksum["kernel_blocked_windows"] / slots
			}
			res.Speedup = append(res.Speedup, p)
		}
		results = append(results, res)
	}
	if asJSON {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, res := range results {
			buf, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			path := filepath.Join(dir, "BENCH_"+res.ID+".json")
			if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%.2f ms/op)\n", path, res.MsPerOp)
		}
		return nil
	}
	fmt.Fprintf(stdout, "%-5s %-10s %5s %12s\n", "id", "fidelity", "runs", "ms/op")
	for _, res := range results {
		fmt.Fprintf(stdout, "%-5s %-10s %5d %12.3f\n", res.ID, res.Fidelity, res.Runs, res.MsPerOp)
		for _, p := range res.Speedup {
			line := fmt.Sprintf("      domains=%-3d %5s %12.3f  (x%.2f)", p.Domains, "", p.MsPerOp, p.Speedup)
			if p.Windows > 0 {
				line += fmt.Sprintf("  %d windows, %.0f%% blocked", p.Windows, 100*p.BlockedFrac)
			}
			fmt.Fprintln(stdout, line)
		}
	}
	return nil
}

// runStored runs ids through the result store: each id is the deepd
// job {"experiment": id} plus the run knobs, normalised and
// content-keyed as deepd keys it. With resume, stored records answer
// their points; the misses run in one Runner call, and each finished
// point is written through as it completes, so a killed sweep keeps
// what it finished. It returns the merged report in request order and
// the number of points resumed.
func runStored(ctx context.Context, stderr io.Writer, runner *deep.Runner, st *store.Store,
	knobs serve.JobSpec, ids []string, resume bool) (*deep.Report, int, error) {
	if len(ids) == 0 {
		ids = deep.ExperimentIDs()
	}
	rep := &deep.Report{Results: make([]deep.RunResult, len(ids))}
	specs := map[string]*serve.JobSpec{}
	keys := map[string]string{}
	var missed []string
	var at []int
	for i, id := range ids {
		spec := knobs
		spec.Experiment = id
		if err := spec.Normalize(); err != nil {
			return nil, 0, err
		}
		key, err := spec.ContentKey()
		if err != nil {
			return nil, 0, err
		}
		if resume {
			if res, ok := lookupRun(st, key, id); ok {
				rep.Results[i] = res
				continue
			}
		}
		specs[id], keys[id] = &spec, key
		missed, at = append(missed, id), append(at, i)
	}
	if len(missed) == 0 {
		// Run with no ids would run the whole registry.
		return rep, len(ids), nil
	}
	var failed atomic.Int64
	r := *runner
	r.OnResult = func(res deep.RunResult) {
		if res.Err != nil {
			return
		}
		entry, err := serve.ExperimentEntry(keys[res.ID], res)
		if err == nil {
			err = st.Put(entry.StoreEntry(specs[res.ID]))
		}
		if err != nil {
			failed.Add(1)
		}
	}
	fresh, err := r.Run(ctx, missed...)
	if fresh == nil {
		return nil, 0, err
	}
	for j, res := range fresh.Results {
		rep.Results[at[j]] = res
	}
	if n := failed.Load(); n > 0 {
		fmt.Fprintf(stderr, "deepbench: %d store writes failed (results above are still fresh)\n", n)
	}
	return rep, len(ids) - len(missed), rep.Err()
}

// lookupRun decodes the record stored under key back into the run of
// experiment id. A missing, undecodable or foreign record is a miss,
// so the point simulates afresh. Hits are touched so pruning sees
// resumed points as live.
func lookupRun(st *store.Store, key, id string) (deep.RunResult, bool) {
	e, ok, err := st.Get(key)
	if err != nil || !ok {
		return deep.RunResult{}, false
	}
	var p serve.ResultPayload
	if json.Unmarshal(e.Result, &p) != nil || p.Experiment == nil || p.Experiment.ID != id || p.Experiment.Table == nil {
		return deep.RunResult{}, false
	}
	st.Touch(key) //nolint:errcheck // advisory liveness marker
	x := p.Experiment
	return deep.RunResult{ID: x.ID, Title: x.Title, PaperRef: x.PaperRef, Table: x.Table}, true
}

// writeFile streams a report export into path.
func writeFile(stderr io.Writer, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}

// run is the testable body of main: it parses args (without the
// program name), runs the selected experiments and returns the process
// exit code: 2 for a flag error, 1 for a refusal or a failed run.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	// The run knobs bind straight into the spec every stored point is
	// keyed by.
	var knobs serve.JobSpec
	fs := flag.NewFlagSet("deepbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Uint64Var(&knobs.Seed, "seed", 0, "override the published seed of seeded experiments (0: keep)")
	fs.Float64Var(&knobs.Scale, "scale", 1, "scale factor for experiment workload sizes")
	fs.StringVar(&knobs.Fidelity, "fidelity", "default", "fabric transfer model: default | packet | flow | auto")
	fs.BoolVar(&knobs.Energy, "energy", false, "append joules / GFlop/W columns to every experiment (event-driven energy recorder)")
	fs.IntVar(&knobs.Domains, "domains", 0, "simulation-kernel domains: 0/1 sequential, K>1 partitioned parallel kernel, -1 = GOMAXPROCS")
	fs.IntVar(&knobs.MaxWindow, "window", 0, "adaptive window cap on the partitioned kernel: quiet windows widen up to N x lookahead (0/1: fixed windows)")
	fs.IntVar(&knobs.MaxNodes, "maxnodes", 0, "bound sweep machine sizes; >103823 adds E15's million-node point (needs -domains >= 2)")
	var (
		runFlag      = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		csvFlag      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonFlag     = fs.Bool("json", false, "emit JSON instead of aligned tables")
		listFlag     = fs.Bool("list", false, "list registered experiments and exit")
		parallelFlag = fs.Int("parallel", 1, "number of experiments to run concurrently")
		benchFlag    = fs.Int("bench", 0, "benchmark mode: time each experiment over N repetitions (best-of)")
		benchDirFlag = fs.String("benchdir", ".", "directory for BENCH_<id>.json files in -bench -json mode")
		traceFlag    = fs.String("trace", "", "write a Chrome trace-event JSON of every run to this file")
		metricsFlag  = fs.String("metrics", "", "write sampled metrics timeseries CSV to this file")
		sampleFlag   = fs.Float64("sample", 0.1, "metrics sampling interval in virtual seconds (with -metrics)")
		storeFlag    = fs.String("store", "", "persist finished points to an append-only store in this directory (deepd's record format)")
		resumeFlag   = fs.Bool("resume", false, "skip points already in -store (resume a killed sweep)")
		speedupFlag  = fs.String("speedup", "", "bench mode: comma-separated domain counts to re-time (e.g. 1,2,4,8); speedups are relative to the first")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "deepbench: "+format+"\n", args...)
		return 1
	}

	fidelity, err := deep.ParseFidelity(knobs.Fidelity)
	if err != nil {
		return fail("%v", err)
	}

	if *listFlag {
		for _, e := range deep.Experiments() {
			fmt.Fprintf(stdout, "%s  %-55s [%s]\n", e.ID, e.Title, e.PaperRef)
		}
		return 0
	}
	if *csvFlag && *jsonFlag {
		return fail("-csv and -json are mutually exclusive")
	}

	var ids []string
	for _, id := range strings.Split(*runFlag, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if *runFlag != "" && len(ids) == 0 {
		return fail("-run %q names no experiments (try -list)", *runFlag)
	}

	runner := &deep.Runner{Parallel: *parallelFlag, Seed: knobs.Seed, Scale: knobs.Scale, Fidelity: fidelity,
		Energy: knobs.Energy, Domains: knobs.Domains, MaxWindow: knobs.MaxWindow, MaxNodes: knobs.MaxNodes}
	runner.Tracing = *traceFlag != ""
	if *metricsFlag != "" {
		runner.MetricsEvery = *sampleFlag
	}

	var curve []int
	if *speedupFlag != "" {
		if *benchFlag <= 0 {
			return fail("-speedup needs -bench (it is a timing curve)")
		}
		for _, s := range strings.Split(*speedupFlag, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || k < 1 {
				return fail("-speedup %q: want positive domain counts", *speedupFlag)
			}
			curve = append(curve, k)
		}
	}

	if *resumeFlag && *storeFlag == "" {
		return fail("-resume needs -store (where would the finished points come from?)")
	}
	var st *store.Store
	if *storeFlag != "" {
		switch {
		case *benchFlag > 0:
			return fail("-store cannot be combined with -bench (stored points would skip the timed work)")
		case runner.Tracing || runner.MetricsEvery > 0:
			return fail("-store cannot be combined with -trace/-metrics (observability artifacts are not stored)")
		}
		if st, err = store.Open(*storeFlag, store.Options{}); err != nil {
			return fail("opening store: %v", err)
		}
		defer st.Close()
	}

	if *benchFlag > 0 {
		if runner.Tracing || runner.MetricsEvery > 0 {
			return fail("-trace/-metrics cannot be combined with -bench (observation would skew the timings)")
		}
		if err := runBench(ctx, stdout, runner, ids, *benchFlag, *jsonFlag, *benchDirFlag, curve); err != nil {
			return fail("%v", err)
		}
		return 0
	}

	var rep *deep.Report
	var runErr error
	if st == nil {
		rep, runErr = runner.Run(ctx, ids...)
	} else {
		var resumed int
		rep, resumed, runErr = runStored(ctx, stderr, runner, st, knobs, ids, *resumeFlag)
		if rep != nil && *resumeFlag {
			fmt.Fprintf(stderr, "deepbench: resumed %d of %d points from %s\n", resumed, len(rep.Results), *storeFlag)
		}
	}
	if rep == nil {
		return fail("%v (try -list)", runErr)
	}
	if *traceFlag != "" {
		if err := writeFile(stderr, *traceFlag, rep.WriteChromeTrace); err != nil {
			return fail("%v", err)
		}
	}
	if *metricsFlag != "" {
		if err := writeFile(stderr, *metricsFlag, rep.WriteMetricsCSV); err != nil {
			return fail("%v", err)
		}
	}

	var sink deep.Sink = deep.TableSink{}
	switch {
	case *csvFlag:
		sink = deep.CSVSink{}
	case *jsonFlag:
		sink = deep.JSONSink{Indent: true}
	}
	if err := sink.Write(stdout, rep); err != nil {
		return fail("%v", err)
	}
	// JSON reports carry per-run errors inline too, but the exit
	// status reflects failure in every format.
	if runErr != nil {
		return fail("%v", runErr)
	}
	return 0
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
