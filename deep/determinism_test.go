package deep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"repro/deep"
)

// TestGatherWorkloadsAreDeterministic: the workloads that gather at a
// root (NBody's Allgather, Offload's partial collection) give the same
// Result bytes run after run on the goroutine MPI runtime, with at
// least two CPUs so the ranks really race, and the sequential NBody
// makespan equals the two-domain one.
func TestGatherWorkloadsAreDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const runs = 20
	nbodyMachine := func(k int) *deep.Machine {
		m, err := deep.NewMachine(deep.WithClusterNodes(8), deep.WithClusterRanks(8), deep.WithDomains(k))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	offloadMachine, err := deep.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i)
	}
	offload := deep.Offload{
		Kernel:       "square",
		Data:         data,
		FlopsPerRank: 1e6,
		Fn: func(rank, size int, in []float64) ([]float64, error) {
			lo, hi := deep.ShardRange(len(in), rank, size)
			out := make([]float64, hi-lo)
			for i := lo; i < hi; i++ {
				out[i-lo] = in[i] * in[i]
			}
			return out, nil
		},
	}
	run := func(m *deep.Machine, w deep.Workload) (*deep.Result, []byte) {
		t.Helper()
		res, err := deep.Run(context.Background(), m.NewEnv(), w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		buf, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return res, buf
	}
	for _, c := range []struct {
		m *deep.Machine
		w deep.Workload
	}{
		{nbodyMachine(1), deep.NBody{N: 64, Steps: 5}},
		{offloadMachine, offload},
	} {
		_, first := run(c.m, c.w)
		for i := 1; i < runs; i++ {
			if _, got := run(c.m, c.w); !bytes.Equal(got, first) {
				t.Fatalf("%s run %d differs from run 0:\n%s\n%s", c.w.Name(), i, got, first)
			}
		}
	}
	seq, _ := run(nbodyMachine(1), deep.NBody{N: 64, Steps: 5})
	par, _ := run(nbodyMachine(2), deep.NBody{N: 64, Steps: 5})
	if seq.ModelTime != par.ModelTime {
		t.Fatalf("nbody modelled time %v at K=1, %v at K=2", seq.ModelTime, par.ModelTime)
	}
}
