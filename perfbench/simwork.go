package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/deep"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/sim"
)

// The simulator workloads run passes: a fixed list of ops, each one
// experiment run or one SDK run, each checked.

// goldenIDs are the experiments with a published golden table.
var goldenIDs = []string{"E01", "E04", "E12", "E13", "E14", "E15", "E16"}

// experimentIDs are the registry experiments, each one span.
var experimentIDs = []string{
	"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08", "E09",
	"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17",
	"A01", "A02", "A03", "A04",
}

// sdkKinds are the SDK workload kinds of the mechanisms pass.
var sdkKinds = []string{"cholesky", "spmv", "stencil", "nbody", "offload", "scheduled-jobs", "traffic"}

// simOp is one op of a pass. It returns an error when a check fails.
type simOp struct {
	name string
	run  func(ctx context.Context, w *simWorkload, ph *phase, op *span, opID int) error
}

// simWorkload is weakscale or mechanisms.
type simWorkload struct {
	cfg    config
	newOps func(*simWorkload) []simOp
	// probe, when set, runs after every traced pass, untimed.
	probe  func(*phase)
	golden map[string][]byte
	sdk    sdkInputs
	ops    []simOp

	first map[string][]byte // first output per experiment and Runner seed

	// passNo counts the passes run; cur holds the running pass's
	// counters and eventSecs the wall time of the ops whose kernel
	// events it counts.
	passNo    int
	cur       map[string]float64
	eventSecs float64
}

func newSimWorkload(cfg config, newOps func(*simWorkload) []simOp, probe func(*phase)) *simWorkload {
	return &simWorkload{cfg: cfg, newOps: newOps, probe: probe, first: map[string][]byte{}}
}

func (w *simWorkload) setup() error {
	// The goldens load at every seed, so set-up does the same work at
	// every seed; they are compared only at the published seed.
	w.golden = map[string][]byte{}
	for _, id := range goldenIDs {
		b, err := os.ReadFile(filepath.Join(goldenDir, id+".golden"))
		if err != nil {
			return err
		}
		w.golden[id] = b
	}
	w.sdk = genSDK(w.cfg.seed)
	w.ops = w.newOps(w)
	return nil
}

func (w *simWorkload) run(ctx context.Context, d time.Duration, ph *phase) error {
	for {
		if err := w.runPass(ctx, ph); err != nil || ph.timed() >= d {
			return err
		}
	}
}

// runPass runs every op of the pass once and records the pass's
// counters.
func (w *simWorkload) runPass(ctx context.Context, ph *phase) error {
	w.cur, w.eventSecs = map[string]float64{}, 0
	var took time.Duration
	for _, o := range w.ops {
		if err := ctx.Err(); err != nil {
			return err
		}
		id := ph.nextOp()
		sp := ph.tr.start(o.name, nil, id, 0)
		t0 := time.Now()
		err := o.run(ctx, w, ph, sp, id)
		lat := time.Since(t0)
		sp.end()
		if err != nil {
			err = fmt.Errorf("%s: %w", o.name, err)
		}
		ph.record(lat, err)
		took += lat
	}
	ph.addPass(len(w.ops), took)
	w.passNo++
	for name, v := range w.cur {
		ph.count(name, v)
	}
	if w.eventSecs > 0 {
		ph.count("sim.events_per_s", w.cur["sim.events"]/w.eventSecs)
	}
	if ph.tr != nil && w.probe != nil {
		w.probe(ph)
	}
	return nil
}

// sameBytes checks an experiment's output against its golden (at the
// published seed) and against its first output at the same Runner
// seed (every seed).
func (w *simWorkload) sameBytes(id string, runnerSeed uint64, got []byte) error {
	if want, ok := w.golden[id]; ok && runnerSeed == 0 && !bytes.Equal(got, want) {
		return fmt.Errorf("output differs from %s/%s.golden", goldenDir, id)
	}
	key := fmt.Sprintf("%s@%d", id, runnerSeed)
	if want, ok := w.first[key]; ok {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("output differs from the first run's bytes at the same seed")
		}
		return nil
	}
	w.first[key] = append([]byte(nil), got...)
	return nil
}

// weakscalePass is E15 at its published sweep.
func weakscalePass(w *simWorkload) []simOp {
	return []simOp{experimentOp("E15", 0)}
}

// buildLargestE15Fabric times, outside the op, a direct build of the
// booster fabric at E15's largest sequential point (47^3 nodes, flow
// fidelity, E15's fabric seed).
func buildLargestE15Fabric(ph *phase) {
	sp := ph.tr.start("machine.booster_fabric", nil, 0, 0)
	machine.BoosterFabric(sim.New(), 47, 47, 47, fabric.FidelityFlow, 2013)
	sp.end()
}

// mechanismsPass is every other registry experiment, E17 on two
// kernel domains, and one seeded SDK run of every workload kind.
func mechanismsPass(w *simWorkload) []simOp {
	var ops []simOp
	for _, id := range experimentIDs {
		switch id {
		case "E15":
		case "E17":
			ops = append(ops, experimentOp(id, 2))
		default:
			ops = append(ops, experimentOp(id, 0))
		}
	}
	in := w.sdk
	ops = append(ops,
		sdkOp("cholesky", "", nil, 0, deep.Cholesky{N: 96, TileSize: 16, Workers: 2}),
		sdkOp("spmv", "", nil, 4, deep.SpMV{NX: in.SpMVX, NY: in.SpMVY, Iters: 10}),
		sdkOp("stencil", "", nil, 4, deep.Stencil{NX: in.StencilX, NY: in.StencilY, Iters: 20}),
		sdkOp("stencil", ".k2", []deep.Option{deep.WithDomains(2)}, 4,
			deep.Stencil{NX: in.StencilX, NY: in.StencilY, Iters: 20}),
		sdkOp("nbody", "", nil, 4, deep.NBody{N: 64, Steps: 10}),
		sdkOp("offload", "", nil, 0, deep.Offload{
			Kernel: "square", Data: in.OffloadData, FlopsPerRank: 1e6, Want: in.OffloadWant,
			Fn: func(rank, size int, data []float64) ([]float64, error) {
				lo, hi := deep.ShardRange(len(data), rank, size)
				out := make([]float64, hi-lo)
				for i := lo; i < hi; i++ {
					out[i-lo] = data[i] * data[i]
				}
				return out, nil
			},
		}),
		sdkOp("scheduled-jobs", "", []deep.Option{
			deep.WithBoosterNodes(64),
			deep.WithFaultInjector(deep.FaultPlan{NodeMTBF: 600, WeibullShape: 0.7, Repair: 10, Seed: in.FaultSeed}),
			deep.WithEnergyMetering(),
			deep.WithPowerGating(0.5),
		}, 0, deep.ScheduledJobs{Jobs: in.Jobs, Dynamic: true, Ckpt: &deep.Checkpointing{
			Interval: deep.DalyInterval(2, 600), Write: 1, Restore: 0.5, Buddy: true,
		}}),
		sdkOp("traffic", "", []deep.Option{
			deep.WithBoosterTorus(4, 4, 4), deep.WithFidelity(deep.Packet),
		}, 0, deep.TorusTraffic{Messages: 1024, Bytes: 2048}),
	)
	return ops
}

// experimentOp runs one registry experiment through deep.Runner and
// checks its rendered table.
func experimentOp(id string, domains int) simOp {
	return simOp{name: "expt." + id, run: func(ctx context.Context, w *simWorkload, ph *phase, op *span, opID int) error {
		r := &deep.Runner{Seed: runSeed(w.cfg.seed, w.passNo), Domains: domains}
		t0 := time.Now()
		rep, err := r.Run(ctx, id)
		took := time.Since(t0)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := (deep.TableSink{}).Write(&buf, rep); err != nil {
			return err
		}
		if err := w.sameBytes(id, r.Seed, buf.Bytes()); err != nil {
			return err
		}
		if id == "E17" {
			return w.e17Counters(rep.Results[0].Table, took)
		}
		return nil
	}}
}

// e17Counters checks E17's twin column and records its kernel
// summary.
func (w *simWorkload) e17Counters(t *deep.Table, took time.Duration) error {
	col := -1
	for i, h := range t.Headers {
		if h == "twin" {
			col = i
		}
	}
	if col < 0 || len(t.Rows) == 0 {
		return fmt.Errorf("table has no twin column")
	}
	for _, row := range t.Rows {
		if row[col] != "true" {
			return fmt.Errorf("partitioned run differs from its plain-World twin: %v", row)
		}
	}
	s := t.Summary
	w.cur["sim.events"] += s["kernel_executed"]
	w.eventSecs += took.Seconds()
	w.cur["sim.cluster.windows"] = s["kernel_windows"]
	w.cur["sim.cluster.cross_events"] = s["kernel_cross_events"]
	if s["kernel_windows"] > 0 && s["domains"] > 0 {
		w.cur["sim.cluster.blocked_frac"] = s["kernel_blocked_windows"] / (s["kernel_windows"] * s["domains"])
	}
	return nil
}

// sdkOp builds a machine with opts and runs one SDK workload on it
// with the seeded environment; ranks > 0 overrides the rank count
// (booster placement wraps ranks over the boosters).
func sdkOp(kind, variant string, opts []deep.Option, ranks int, wl deep.Workload) simOp {
	return simOp{name: "sdk." + kind + variant, run: func(ctx context.Context, w *simWorkload, ph *phase, op *span, opID int) error {
		sp := ph.tr.start("deep.new_machine", op, opID, 0)
		m, err := deep.NewMachine(append([]deep.Option{deep.WithSeed(w.sdk.EnvSeed)}, opts...)...)
		sp.end()
		if err != nil {
			return err
		}
		env := m.NewEnv()
		if ranks > 0 {
			env.Ranks = ranks
		}
		sp = ph.tr.start("deep.run."+kind+variant, op, opID, 0)
		t0 := time.Now()
		res, err := deep.Run(ctx, env, wl)
		took := time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		if !res.Verified {
			return fmt.Errorf("not verified (max error %g, tol %g): %v", res.MaxError, res.Tol, res.Notes)
		}
		if k := res.Kernel; k != nil {
			w.cur["sim.events"] += float64(k.ExecutedEvents)
			w.eventSecs += took.Seconds()
			w.cur["sim.max_queue_depth"] = max(w.cur["sim.max_queue_depth"], float64(k.MaxQueueDepth))
		}
		if v, ok := res.Metric("messages"); ok {
			w.cur["mpi.messages"] += v
		}
		if v, ok := res.Metric("sent_bytes"); ok {
			w.cur["mpi.bytes"] += v
		}
		return nil
	}}
}
