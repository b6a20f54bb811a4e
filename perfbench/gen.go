package main

import (
	"math"
	"math/rand/v2"

	"repro/deep"
	"repro/internal/serve"
)

// Input generation. Every input the program sees is drawn from the
// workload seed with math/rand/v2's PCG, whose output is fixed by its
// specification, so a seed names the same inputs on every Go release
// and every commit of the program. Sizes vary with the seed only in
// shape, not in amount of work, so runs at different seeds measure
// the same load.

// publishedSeed is the seed at which experiments keep their published
// seeds and the golden tables apply.
const publishedSeed = 0

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// runSeeds is how many Runner seeds a workload seed rotates through,
// one per pass. Some experiments (E13 most) do an amount of work that
// depends on their seed; averaging it over several seeds lets runs at
// different workload seeds measure the same load.
const runSeeds = 8

// runSeed is the deep.Runner and registry-spec seed of pass p: zero,
// each experiment's published seed, at the published workload seed.
func runSeed(seed uint64, pass int) uint64 {
	if seed == publishedSeed {
		return 0
	}
	return seed*runSeeds + uint64(pass%runSeeds)
}

// sdkInputs are the sizes and inputs of the mechanisms workload's SDK
// runs.
type sdkInputs struct {
	// EnvSeed seeds the problem data every SDK workload generates.
	EnvSeed uint64
	// Grid shapes of equal cell count for SpMV and Stencil.
	SpMVX, SpMVY       int
	StencilX, StencilY int
	// Offload input and its expected squared output.
	OffloadData, OffloadWant []float64
	// Jobs is the booster job mix; FaultSeed seeds its failure trace.
	Jobs      []deep.Job
	FaultSeed uint64
}

func genSDK(seed uint64) sdkInputs {
	r := newRand(seed, 1)
	in := sdkInputs{EnvSeed: r.Uint64()>>1 + 1, FaultSeed: r.Uint64()>>1 + 1}
	spmv := [][2]int{{32, 32}, {16, 64}, {64, 16}}[r.IntN(3)]
	stencil := [][2]int{{64, 64}, {32, 128}, {128, 32}}[r.IntN(3)]
	in.SpMVX, in.SpMVY = spmv[0], spmv[1]
	in.StencilX, in.StencilY = stencil[0], stencil[1]
	in.OffloadData = make([]float64, 8192)
	in.OffloadWant = make([]float64, len(in.OffloadData))
	for i := range in.OffloadData {
		v := r.Float64()*2 - 1
		in.OffloadData[i], in.OffloadWant[i] = v, v*v
	}
	in.Jobs = make([]deep.Job, 24)
	for i := range in.Jobs {
		in.Jobs[i] = deep.Job{
			ID:       i,
			Arrival:  float64(i) * 0.5,
			Boosters: 1 << r.IntN(4),
			Duration: 10 + 20*r.Float64(),
		}
	}
	return in
}

// Parameters of the deepd-mix spec stream.
const (
	cacheEntries = 32               // serve.Options.CacheEntries
	distinctSpec = 4 * cacheEntries // distinct specs in the stream
	zipfS        = 1.0              // popularity skew: rank r has weight 1/(r+1)^s
	experimentAt = 2                // popularity rank of the registry-experiment spec
)

// specStream is the seeded request mix of the deepd-mix workload.
type specStream struct {
	// Specs are the distinct specs, most popular first.
	Specs []serve.JobSpec
	// Fill and Restart are the request sequences of the two phases of
	// a round, as indices into Specs; Fill requests every spec.
	Fill, Restart []int
}

// genStream draws two Zipf-distributed request sequences of n requests
// each (plus, in the fill phase, one request for every spec the draws
// missed) over distinct specs: small custom-workload specs plus one
// registry-experiment spec (E01, checked against its golden). The
// kind and size at each popularity rank are the same at every seed,
// so every seed's stream costs the same to serve; the seed draws the
// requests and, through the spec seeds, every spec's problem data.
func genStream(seed uint64, n int) specStream {
	r := newRand(seed, 2)
	st := specStream{Specs: make([]serve.JobSpec, distinctSpec)}
	for i := range st.Specs {
		if i == experimentAt {
			st.Specs[i] = serve.JobSpec{Experiment: "E01", Seed: runSeed(seed, 0)}
			continue
		}
		st.Specs[i] = smallSpec(i)
		// A distinct spec seed per entry makes every content key
		// distinct and seeds the problem data.
		st.Specs[i].Seed = seed<<20 + uint64(i) + 1
	}
	cdf := make([]float64, distinctSpec)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), zipfS)
		cdf[i] = sum
	}
	draw := func() int {
		u := r.Float64() * sum
		for i, c := range cdf {
			if u < c {
				return i
			}
		}
		return len(cdf) - 1
	}
	st.Fill = make([]int, n)
	st.Restart = make([]int, n)
	seen := make([]bool, distinctSpec)
	for i := range n {
		st.Fill[i] = draw()
		seen[st.Fill[i]] = true
	}
	for i := range n {
		st.Restart[i] = draw()
	}
	// The fill phase ends by requesting every spec the draws missed, so
	// each round computes the whole spec set: the same work at every
	// seed.
	for _, i := range r.Perm(distinctSpec) {
		if !seen[i] {
			st.Fill = append(st.Fill, i)
		}
	}
	return st
}

// smallSpec is the i-th small custom-workload spec: the kinds take
// turns and each kind's sizes step through small ranges.
func smallSpec(i int) serve.JobSpec {
	j := i / 6
	w := &serve.WorkloadSpec{}
	var m *serve.MachineSpec
	switch i % 6 {
	case 0:
		w.Kind, w.N, w.TileSize, w.Workers = "cholesky", 32+16*(j%2), 16, 2
	case 1:
		w.Kind, w.NX, w.NY, w.Iters = "spmv", 8+j*5%17, 8+j*11%17, 2+j%5
	case 2:
		w.Kind, w.NX, w.NY, w.Iters = "stencil", 8+j*7%17, 8+j*13%17, 2+j%5
	case 3:
		w.Kind, w.N, w.Steps = "nbody", 16+8*(j%3), 2+j%4
	case 4:
		w.Kind, w.Dynamic = "jobs", true
		for k := range 6 + j%5 {
			w.Jobs = append(w.Jobs, deep.Job{ID: k, Arrival: float64(k),
				Boosters: 1 << ((j + k) % 3), Duration: float64(5 + (j*7+k*3)%10)})
		}
		m = &serve.MachineSpec{BoosterNodes: 16}
	case 5:
		w.Kind, w.Messages, w.MsgBytes = "traffic", 64+j*37%193, 1024
		m = &serve.MachineSpec{BoosterTorus: []int{2, 2, 2}}
	}
	return serve.JobSpec{Workload: w, Machine: m}
}
