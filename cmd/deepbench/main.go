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
	"time"

	"repro/deep"
	"repro/internal/expt"
	"repro/internal/store"
)

// writeOnlyStore records finished points without ever answering a
// lookup: -store without -resume persists a sweep for later resumption
// but still recomputes everything this time.
type writeOnlyStore struct{ inner deep.RunStore }

func (w writeOnlyStore) LookupRun(string) ([]byte, bool) { return nil, false }
func (w writeOnlyStore) StoreRun(key, experiment string, payload, text []byte) error {
	return w.inner.StoreRun(key, experiment, payload, text)
}

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
func runBench(ctx context.Context, runner *deep.Runner, ids []string, reps int, asJSON bool, dir string, curve []int) error {
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
			fmt.Printf("wrote %s (%.2f ms/op)\n", path, res.MsPerOp)
		}
		return nil
	}
	fmt.Printf("%-5s %-10s %5s %12s\n", "id", "fidelity", "runs", "ms/op")
	for _, res := range results {
		fmt.Printf("%-5s %-10s %5d %12.3f\n", res.ID, res.Fidelity, res.Runs, res.MsPerOp)
		for _, p := range res.Speedup {
			line := fmt.Sprintf("      domains=%-3d %5s %12.3f  (x%.2f)", p.Domains, "", p.MsPerOp, p.Speedup)
			if p.Windows > 0 {
				line += fmt.Sprintf("  %d windows, %.0f%% blocked", p.Windows, 100*p.BlockedFrac)
			}
			fmt.Println(line)
		}
	}
	return nil
}

// writeFile streams a report export into path.
func writeFile(path string, write func(io.Writer) error) error {
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
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func main() {
	var (
		runFlag      = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		csvFlag      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonFlag     = flag.Bool("json", false, "emit JSON instead of aligned tables")
		listFlag     = flag.Bool("list", false, "list registered experiments and exit")
		parallelFlag = flag.Int("parallel", 1, "number of experiments to run concurrently")
		seedFlag     = flag.Uint64("seed", 0, "override the published seed of seeded experiments (0: keep)")
		scaleFlag    = flag.Float64("scale", 1, "scale factor for experiment workload sizes")
		fidelityFlag = flag.String("fidelity", "default", "fabric transfer model: default | packet | flow | auto")
		energyFlag   = flag.Bool("energy", false, "append joules / GFlop/W columns to every experiment (event-driven energy recorder)")
		benchFlag    = flag.Int("bench", 0, "benchmark mode: time each experiment over N repetitions (best-of)")
		benchDirFlag = flag.String("benchdir", ".", "directory for BENCH_<id>.json files in -bench -json mode")
		traceFlag    = flag.String("trace", "", "write a Chrome trace-event JSON of every run to this file")
		metricsFlag  = flag.String("metrics", "", "write sampled metrics timeseries CSV to this file")
		sampleFlag   = flag.Float64("sample", 0.1, "metrics sampling interval in virtual seconds (with -metrics)")
		storeFlag    = flag.String("store", "", "persist finished points to an append-only store in this directory")
		resumeFlag   = flag.Bool("resume", false, "skip points already in -store (resume a killed sweep)")
		domainsFlag  = flag.Int("domains", 0, "simulation-kernel domains: 0/1 sequential, K>1 partitioned parallel kernel, -1 = GOMAXPROCS")
		windowFlag   = flag.Int("window", 0, "adaptive window cap on the partitioned kernel: quiet windows widen up to N x lookahead (0/1: fixed windows)")
		maxNodesFlag = flag.Int("maxnodes", 0, "bound sweep machine sizes; >103823 adds E15's million-node point (needs -domains >= 2)")
		speedupFlag  = flag.String("speedup", "", "bench mode: comma-separated domain counts to re-time (e.g. 1,2,4,8); speedups are relative to the first")
	)
	flag.Parse()

	fidelity, err := deep.ParseFidelity(*fidelityFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepbench: %v\n", err)
		os.Exit(1)
	}

	if *listFlag {
		for _, e := range deep.Experiments() {
			fmt.Printf("%s  %-55s [%s]\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}
	if *csvFlag && *jsonFlag {
		fmt.Fprintln(os.Stderr, "deepbench: -csv and -json are mutually exclusive")
		os.Exit(1)
	}

	var ids []string
	for _, id := range strings.Split(*runFlag, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if *runFlag != "" && len(ids) == 0 {
		fmt.Fprintf(os.Stderr, "deepbench: -run %q names no experiments (try -list)\n", *runFlag)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runner := &deep.Runner{Parallel: *parallelFlag, Seed: *seedFlag, Scale: *scaleFlag, Fidelity: fidelity, Energy: *energyFlag,
		Domains: *domainsFlag, MaxWindow: *windowFlag, MaxNodes: *maxNodesFlag}
	runner.Tracing = *traceFlag != ""
	if *metricsFlag != "" {
		runner.MetricsEvery = *sampleFlag
	}

	var curve []int
	if *speedupFlag != "" {
		if *benchFlag <= 0 {
			fmt.Fprintln(os.Stderr, "deepbench: -speedup needs -bench (it is a timing curve)")
			os.Exit(1)
		}
		for _, s := range strings.Split(*speedupFlag, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || k < 1 {
				fmt.Fprintf(os.Stderr, "deepbench: -speedup %q: want positive domain counts\n", *speedupFlag)
				os.Exit(1)
			}
			curve = append(curve, k)
		}
	}

	if *resumeFlag && *storeFlag == "" {
		fmt.Fprintln(os.Stderr, "deepbench: -resume needs -store (where would the finished points come from?)")
		os.Exit(1)
	}
	if *storeFlag != "" {
		switch {
		case *benchFlag > 0:
			fmt.Fprintln(os.Stderr, "deepbench: -store cannot be combined with -bench (stored points would skip the timed work)")
			os.Exit(1)
		case runner.Tracing || runner.MetricsEvery > 0:
			fmt.Fprintln(os.Stderr, "deepbench: -store cannot be combined with -trace/-metrics (observability artifacts are not stored)")
			os.Exit(1)
		}
		st, err := store.Open(*storeFlag, store.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepbench: opening store: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
		runner.Store = store.RunView{Store: st}
		if !*resumeFlag {
			runner.Store = writeOnlyStore{inner: runner.Store}
		}
	}

	if *benchFlag > 0 {
		if runner.Tracing || runner.MetricsEvery > 0 {
			fmt.Fprintln(os.Stderr, "deepbench: -trace/-metrics cannot be combined with -bench (observation would skew the timings)")
			os.Exit(1)
		}
		if err := runBench(ctx, runner, ids, *benchFlag, *jsonFlag, *benchDirFlag, curve); err != nil {
			fmt.Fprintf(os.Stderr, "deepbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rep, runErr := runner.Run(ctx, ids...)
	if rep == nil {
		fmt.Fprintf(os.Stderr, "deepbench: %v (try -list)\n", runErr)
		os.Exit(1)
	}
	if *resumeFlag {
		fmt.Fprintf(os.Stderr, "deepbench: resumed %d of %d points from %s\n",
			rep.StoreHits, len(rep.Results), *storeFlag)
	}
	if rep.StoreErrors > 0 {
		fmt.Fprintf(os.Stderr, "deepbench: %d store writes failed (results above are still fresh)\n", rep.StoreErrors)
	}
	if *traceFlag != "" {
		if err := writeFile(*traceFlag, rep.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "deepbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *metricsFlag != "" {
		if err := writeFile(*metricsFlag, rep.WriteMetricsCSV); err != nil {
			fmt.Fprintf(os.Stderr, "deepbench: %v\n", err)
			os.Exit(1)
		}
	}

	var sink deep.Sink = deep.TableSink{}
	switch {
	case *csvFlag:
		sink = deep.CSVSink{}
	case *jsonFlag:
		sink = deep.JSONSink{Indent: true}
	}
	if err := sink.Write(os.Stdout, rep); err != nil {
		fmt.Fprintf(os.Stderr, "deepbench: %v\n", err)
		os.Exit(1)
	}
	// JSON reports carry per-run errors inline too, but the exit
	// status reflects failure in every format.
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "deepbench: %v\n", runErr)
		os.Exit(1)
	}
}
