package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

func digest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))[:16]
}

// TestGenerationIsSeedStable: a seed names the same inputs on every
// call, and on every build — the digests pin the generated inputs, so
// a change to the generators (or to the PCG streams they draw from)
// shows up here before it silently changes what the benchmark runs.
func TestGenerationIsSeedStable(t *testing.T) {
	if !reflect.DeepEqual(genSDK(7), genSDK(7)) {
		t.Error("genSDK(7) differs between calls")
	}
	if !reflect.DeepEqual(genStream(7, 500), genStream(7, 500)) {
		t.Error("genStream(7) differs between calls")
	}
	if reflect.DeepEqual(genSDK(7), genSDK(8)) || reflect.DeepEqual(genStream(7, 500), genStream(8, 500)) {
		t.Error("seeds 7 and 8 generate the same inputs")
	}
	for _, c := range []struct {
		name string
		v    any
		want string
	}{
		{"genSDK(0)", genSDK(0), "ec6877946d1fdcdf"},
		{"genSDK(7)", genSDK(7), "3bc411c8f650e865"},
		{"genStream(0, 600)", genStream(0, 600), "e2c5a12d391de862"},
		{"genStream(7, 600)", genStream(7, 600), "a3c0293d93208fa7"},
	} {
		if got := digest(t, c.v); got != c.want {
			t.Errorf("%s digest = %s, want %s: the generated inputs changed", c.name, got, c.want)
		}
	}
}

// TestSDKSizesKeepTheWork: the seed varies grid shapes, not cell
// counts, so every seed measures the same amount of work.
func TestSDKSizesKeepTheWork(t *testing.T) {
	for seed := range uint64(50) {
		in := genSDK(seed)
		if in.SpMVX*in.SpMVY != 32*32 || in.StencilX*in.StencilY != 64*64 {
			t.Fatalf("seed %d: grids %dx%d and %dx%d change the cell count", seed, in.SpMVX, in.SpMVY, in.StencilX, in.StencilY)
		}
		if in.EnvSeed == 0 || in.FaultSeed == 0 {
			t.Fatalf("seed %d: zero derived seed", seed)
		}
		for i, v := range in.OffloadData {
			if in.OffloadWant[i] != v*v {
				t.Fatalf("seed %d: offload reference %d is not the square of its input", seed, i)
			}
		}
	}
}

func TestStreamShape(t *testing.T) {
	st := genStream(3, 2000)
	if len(st.Specs) != distinctSpec || len(st.Fill) < 2000 || len(st.Restart) != 2000 {
		t.Fatalf("stream sizes %d/%d/%d", len(st.Specs), len(st.Fill), len(st.Restart))
	}
	seen := map[string]bool{}
	for i, s := range st.Specs {
		b, _ := json.Marshal(s)
		if seen[string(b)] {
			t.Fatalf("spec %d duplicates an earlier spec: %s", i, b)
		}
		seen[string(b)] = true
		if (s.Experiment != "") == (s.Workload != nil) {
			t.Fatalf("spec %d needs exactly one of experiment and workload", i)
		}
	}
	if st.Specs[experimentAt].Experiment != "E01" {
		t.Fatalf("spec %d is not the registry experiment", experimentAt)
	}
	inFill := map[int]bool{}
	for _, i := range st.Fill {
		inFill[i] = true
	}
	if len(inFill) != distinctSpec {
		t.Fatalf("the fill phase requests %d of %d specs", len(inFill), distinctSpec)
	}
	// Zipf: the most popular spec is requested more often than the
	// least popular, and the experiment spec is requested at all.
	counts := make([]int, distinctSpec)
	for _, i := range append(st.Fill, st.Restart...) {
		counts[i]++
	}
	if counts[0] <= counts[distinctSpec-1] || counts[experimentAt] == 0 {
		t.Fatalf("request counts are not Zipf-like: first %d, last %d, experiment %d",
			counts[0], counts[distinctSpec-1], counts[experimentAt])
	}
}
