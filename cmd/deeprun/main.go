// Command deeprun executes one workload on the modelled DEEP machine
// and reports both numerical verification and the modelled execution
// time. It is a thin shell over deepd's spec pipeline: the flags fill
// a serve.JobSpec, which is normalised, content-keyed and executed
// exactly as a deepd job would be, so a -store record is a deepd
// record (same key, same bytes, meta "workload:<kind>").
//
//	deeprun -app cholesky -n 64 -ts 16 -workers 8
//	deeprun -app spmv -nx 32 -ny 32 -iters 10 -ranks 4
//	deeprun -app stencil -nx 64 -ny 64 -iters 20 -ranks 8
//	deeprun -app nbody -n 64 -iters 10 -ranks 4
//	deeprun -app traffic -nx 8 -ny 8 -nz 8 -domains 4 -msgs 8192
//	deeprun -app traffic -nx 4 -ny 4 -nz 4 -pattern neighbor -msgbytes 65536
//	deeprun -app traffic -topo fattree -ranks 64 -pattern alltoall -error 1e-3
//	deeprun -app spmv -ranks 4 -energy
//	deeprun -app jobs -jobs 24 -dynamic -mtbf 120 -trace t.json -metrics m.csv
//	deeprun -app spmv -store results          # persist the run
//	deeprun -app spmv -store results -resume  # replay it without simulating
//
// The exit status is part of the contract: 0 only when the run
// completed AND its numerical verification (if any) passed; 1 on
// verification failure or any error. A -resume replay keeps the
// contract: the stored verified flag decides the exit status.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"

	"repro/deep"
	"repro/internal/serve"
	"repro/internal/store"
)

// syntheticJobs builds a seeded synthetic booster job mix for the
// "jobs" app: staggered arrivals, 2-8 s durations, power-of-two
// booster demands across four owners.
func syntheticJobs(n int, seed uint64) []deep.Job {
	r := rand.New(rand.NewSource(int64(seed)))
	jobs := make([]deep.Job, max(n, 0))
	for i := range jobs {
		jobs[i] = deep.Job{
			ID:       i,
			Arrival:  float64(i) * 0.25,
			Duration: 2 + r.Float64()*6,
			Boosters: 1 << r.Intn(4),
			Owner:    i % 4,
		}
	}
	return jobs
}

// run is the testable body of main: parses args (without the program
// name), runs the workload, and returns the process exit code. A
// failed numerical verification returns 1 even though the run itself
// completed — CI scripts depend on that.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	w := &serve.WorkloadSpec{}
	spec := &serve.JobSpec{Workload: w}
	fs := flag.NewFlagSet("deeprun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&w.Kind, "app", "cholesky", "workload: cholesky | spmv | stencil | nbody | jobs | traffic")
	fs.IntVar(&w.N, "n", 64, "cholesky matrix dimension / nbody body count")
	fs.IntVar(&w.TileSize, "ts", 16, "cholesky tile size")
	fs.IntVar(&w.Workers, "workers", 8, "cholesky OmpSs workers")
	fs.IntVar(&w.NX, "nx", 32, "grid X dimension (traffic: booster torus X)")
	fs.IntVar(&w.NY, "ny", 32, "grid Y dimension (traffic: booster torus Y)")
	fs.IntVar(&w.Iters, "iters", 10, "iterations (nbody: steps)")
	fs.Float64Var(&w.Tol, "tol", 0, "override the workload's verification tolerance (0: built-in default)")
	fs.BoolVar(&w.Dynamic, "dynamic", false, "jobs: draw boosters from the shared pool instead of static ownership")
	fs.IntVar(&w.Messages, "msgs", 4096, "traffic: number of random point-to-point messages")
	fs.IntVar(&w.MsgBytes, "msgbytes", 2048, "traffic: payload bytes per message")
	fs.Float64Var(&w.WindowMS, "window", 1, "traffic: random injection window in virtual milliseconds")
	fs.StringVar(&w.Topology, "topo", "torus", "traffic: fabric: torus (booster, -nx/-ny/-nz) | fattree (cluster, one node per rank) | crossbar (booster)")
	fs.StringVar(&w.Pattern, "pattern", "random", "traffic: random (-msgs over -window) | neighbor (torus only) | alltoall")
	fs.Float64Var(&w.ErrorRate, "error", 0, "traffic: per-packet link error probability (sequential kernel only)")
	fs.Uint64Var(&spec.Seed, "seed", 42, "random seed (non-zero)")
	fs.StringVar(&spec.Fidelity, "fidelity", "default", "fabric transfer model: default | packet | flow | auto")
	fs.BoolVar(&spec.Energy, "energy", false, "report energy to solution (joules, per-group breakdown)")
	fs.IntVar(&spec.Domains, "domains", 0, "simulation-kernel domain count (0 or 1: sequential kernel; <0: GOMAXPROCS)")
	fs.IntVar(&spec.MaxWindow, "maxwindow", 0, "adaptive window cap on the partitioned kernel: quiet windows widen up to N x lookahead (0 or 1: fixed windows)")
	var (
		ranks    = fs.Int("ranks", 4, "MPI ranks; the machine gets one cluster node per rank (at least 2)")
		jobCount = fs.Int("jobs", 24, "jobs: number of synthetic jobs to schedule")
		mtbf     = fs.Float64("mtbf", 0, "jobs: per-node MTBF in seconds (0: no fault injection)")
		boosters = fs.Int("boosters", 16, "jobs: booster pool size")
		nz       = fs.Int("nz", 8, "traffic: booster torus Z dimension (with -nx/-ny)")
		trace    = fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
		metrics  = fs.String("metrics", "", "write sampled metrics timeseries CSV to this file")
		sample   = fs.Float64("sample", 0.1, "metrics sampling interval in virtual seconds (with -metrics)")
		storeDir = fs.String("store", "", "persist the run to an append-only store in this directory")
		resume   = fs.Bool("resume", false, "replay a stored identical run from -store instead of simulating")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "deeprun: %v\n", err)
		return 1
	}
	switch {
	case *resume && *storeDir == "":
		return fail(fmt.Errorf("-resume needs -store"))
	case *storeDir != "" && (*trace != "" || *metrics != ""):
		return fail(fmt.Errorf("-store cannot be combined with -trace/-metrics (observability artifacts are not stored)"))
	case *ranks < 1:
		return fail(fmt.Errorf("-ranks %d: need at least one rank", *ranks))
	case spec.Seed == 0:
		return fail(fmt.Errorf("-seed 0: specs read seed 0 as the machine default (42); pass -seed 42 for it"))
	}

	// Flags shared between apps fill every field they can mean;
	// Normalize keeps only the fields the chosen kind reads.
	w.Steps = w.Iters
	w.Jobs = syntheticJobs(*jobCount, spec.Seed)
	m := &serve.MachineSpec{ClusterNodes: max(*ranks, 2), BoosterNodes: max(*ranks, 2), ClusterRanks: *ranks}
	if w.Kind == "jobs" {
		m.BoosterNodes = *boosters
		if *mtbf > 0 {
			m.Faults = &serve.FaultSpec{NodeMTBFS: *mtbf, RepairS: 5}
		}
	}
	if w.Kind == "traffic" {
		m.BoosterNodes, m.BoosterTorus = 0, []int{w.NX, w.NY, *nz}
	}
	spec.Machine = m
	spec.Trace = *trace != ""
	if *metrics != "" {
		spec.MetricsEveryS = *sample
	}
	if err := spec.Normalize(); err != nil {
		return fail(err)
	}
	key, err := spec.ContentKey()
	if err != nil {
		return fail(err)
	}

	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir, store.Options{}); err != nil {
			return fail(err)
		}
		defer st.Close()
	}
	if *resume {
		if e, ok, gerr := st.Get(key); gerr == nil && ok && len(e.Text) > 0 {
			if _, werr := stdout.Write(e.Text); werr != nil {
				return fail(werr)
			}
			fmt.Fprintf(stderr, "deeprun: replayed stored run (store %s)\n", *storeDir)
			if !e.Verified {
				return 1
			}
			return 0
		}
	}

	entry, err := serve.Execute(ctx, key, spec, nil)
	if err != nil {
		return fail(err)
	}
	if _, err := stdout.Write(entry.Text); err != nil {
		return fail(err)
	}
	if st != nil {
		if perr := st.Put(entry.StoreEntry(spec)); perr != nil {
			fmt.Fprintf(stderr, "deeprun: store write failed: %v (run output above is unaffected)\n", perr)
		}
	}
	for _, out := range []struct {
		path string
		data []byte
	}{{*trace, entry.Trace}, {*metrics, entry.Metrics}} {
		if out.path == "" {
			continue
		}
		if err := os.WriteFile(out.path, out.data, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "wrote %s\n", out.path)
	}
	if !entry.Verified {
		return 1
	}
	return 0
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
