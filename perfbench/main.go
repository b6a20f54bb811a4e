// Command perfbench is the repository benchmark: one process that
// drives the program through its public entry points under one of
// three workloads, checks every output it produces, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload weakscale --seed 0 --seconds 20 --trace 0
//
// Workloads:
//
//	weakscale   E15 through deep.Runner: sequential kernel, flow fabric,
//	            10^3 to ~10^5 boosters.
//	mechanisms  every other registry experiment plus seeded SDK runs of
//	            every workload kind, E17 on two kernel domains.
//	deepd-mix   a serve.Server with an fsync'd store, driven closed-loop
//	            by two clients over HTTP; each round fills an empty store,
//	            then restarts the server on it.
//
// With --trace 0 the run is untraced and reports the end-to-end
// metrics. With --trace 1 it runs an untraced phase and then a traced
// phase of the same length: spans around every call into the program,
// CPU and allocation profiles charged to the program's modules, and
// the counters the program's functions return. It reports the
// per-layer metrics, among them the tracing overhead.
//
// The seed generates every input: SDK sizes and data, the deepd spec
// stream and the Runner seed. Seed 0 is the published seed, the only
// one at which outputs are compared with deep/testdata/*.golden;
// self-verification and byte-equality checks apply at every seed.
//
// The benchmark runs from the root of a checkout: it reads the goldens
// there and keeps what it writes under .bench_build. Each run writes a
// result file with the host record, every metric, sample counts and
// the failed checks, plus the span trace and the CPU profile of a
// traced phase, to .bench_build/results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// Paths inside the checkout the benchmark runs in.
const (
	goldenDir  = "deep/testdata"
	resultsDir = ".bench_build/results"
	tmpDir     = ".bench_build/tmp"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: weakscale, mechanisms or deepd-mix")
	fs.Uint64Var(&cfg.seed, "seed", publishedSeed, "workload seed (0: the published seed, golden checks on)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of each timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1: add a traced phase and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || cfg.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --trace 0|1, --seconds > 0 and no positional arguments")
		return 2
	}
	cfg.trace = trace == 1
	// The load is sized for two CPUs: two clients, two deepd workers,
	// at most two kernel domains.
	runtime.GOMAXPROCS(2)

	sum, err := bench(context.Background(), cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench runs one invocation and writes its result file.
func bench(ctx context.Context, cfg config, stderr io.Writer) (*summary, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	chk := &checker{}
	rep := &report{
		Host:     hostRecord(),
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Samples: map[string]int{},
	}

	// Set-up runs several times; setup_s is the median.
	const setups = 31
	var setupS []float64
	for range setups {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	rep.Samples["setup"] = setups

	// One untimed, checked pass or round warms the heap and the caches.
	if err := w.run(ctx, 0, &phase{chk: chk}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	plain, err := measure(ctx, w, d, chk, nil)
	if err != nil {
		return nil, err
	}
	e2e := plain.endToEnd(setupS)
	rep.EndToEnd = e2e
	rep.addSamples(plain)

	sum := &summary{Metrics: map[string]metric{}}
	if cfg.trace {
		tr := newTracer()
		traced, err := measure(ctx, w, d, chk, tr)
		if err != nil {
			return nil, err
		}
		layers := traced.perLayer()
		layers["bench.trace_overhead"] = 1 - traced.opsPerSec()/plain.opsPerSec()
		rep.PerLayer = layers
		rep.CPUByLayer, rep.AllocByLayer = traced.cpu, traced.alloc
		for _, m := range perLayerMetrics() {
			sum.Metrics[m.Name] = metric{layers[m.Name], m.Unit}
		}
		if err := writeArtifacts(cfg, traced, tr); err != nil {
			return nil, err
		}
	} else {
		for _, m := range endToEndMetrics {
			sum.Metrics[m.Name] = metric{e2e[m.Name], m.Unit}
		}
	}

	sum.Attempted, sum.Failed = chk.counts()
	sum.Correct = sum.Failed == 0 && sum.Attempted > 0
	rep.Correct, rep.Attempted, rep.Failed = sum.Correct, sum.Attempted, sum.Failed
	rep.ErrorRate = float64(sum.Failed) / float64(max(sum.Attempted, 1))
	rep.Failures = chk.messages()
	for _, msg := range rep.Failures {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", msg)
	}
	if err := rep.write(cfg); err != nil {
		return nil, err
	}
	return sum, nil
}

// report is the result file of one invocation.
type report struct {
	Host      map[string]string `json:"host"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	ErrorRate float64           `json:"error_rate"`
	Failures  []string          `json:"failures,omitempty"`
	Samples   map[string]int    `json:"samples"`
	// PassRates are the quartiles of the passes' (or rounds') ops per
	// second: the noise within the run.
	PassRates    []float64          `json:"pass_ops_per_s_quartiles,omitempty"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	CPUByLayer   map[string]float64 `json:"cpu_share_by_layer,omitempty"`
	AllocByLayer map[string]float64 `json:"alloc_share_by_layer,omitempty"`
}

func (r *report) addSamples(p *phaseResult) {
	r.Samples["ops"] = len(p.lat)
	r.Samples["hits"] = len(p.hitLat)
	r.Samples["misses"] = len(p.missLat)
	r.Samples["passes"] = len(p.passes)
	if q1, q2, q3, ok := quartiles(p.passRates()); ok {
		r.PassRates = []float64{q1, q2, q3}
	}
}

// runName identifies the invocation in result file names.
func (c config) runName() string {
	trace := 0
	if c.trace {
		trace = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", c.workload, c.seed, trace)
}

func (r *report) write(cfg config) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(resultsDir, cfg.runName()+".json"), append(b, '\n'), 0o644)
}

// writeArtifacts saves the traced phase's spans as a Chrome trace and
// its CPU profile, for cmd/deeptrace and go tool pprof.
func writeArtifacts(cfg config, p *phaseResult, tr *tracer) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(resultsDir, cfg.runName())
	f, err := os.Create(base + "-spans.json")
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f, "perfbench "+cfg.runName()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(base+"-cpu.pprof", p.cpuProfile, 0o644)
}

// hostRecord describes the machine and build a result was measured on.
func hostRecord() map[string]string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return map[string]string{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gogc":       gogc,
		"commit":     gitCommit(),
	}
}

// gitCommit reads the checked-out commit from .git without running
// git; "unknown" outside a repository.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
