package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/deep"
)

func TestBenchKey(t *testing.T) {
	cases := []struct {
		domains, maxWindow, maxNodes int
		want                         string
	}{
		{0, 0, 0, "E15"},
		{1, 8, 0, "E15_w8"},
		{4, 0, 1000000, "E15_d4_n1000000"},
		{4, 8, 20000, "E15_d4_w8_n20000"},
	}
	for _, c := range cases {
		if got := benchKey("E15", c.domains, c.maxWindow, c.maxNodes); got != c.want {
			t.Errorf("benchKey(E15, %d, %d, %d) = %q, want %q", c.domains, c.maxWindow, c.maxNodes, got, c.want)
		}
	}
}

// TestBenchResolvesDomains: -domains -1 runs at GOMAXPROCS domains, so
// the BENCH file must be keyed and recorded at that K — never as
// "domains": -1 over the sequential timing file.
func TestBenchResolvesDomains(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, c := range []struct {
		domains int
		file    string
		want    int
	}{
		{-1, "BENCH_E04_d3.json", 3},
		{1, "BENCH_E04.json", 0},
	} {
		dir := t.TempDir()
		if err := runBench(context.Background(), &deep.Runner{Domains: c.domains}, []string{"E04"}, 1, true, dir, nil); err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(filepath.Join(dir, c.file))
		if err != nil {
			t.Fatalf("-domains %d: %v", c.domains, err)
		}
		var res benchResult
		if err := json.Unmarshal(buf, &res); err != nil {
			t.Fatal(err)
		}
		if res.Domains != c.want {
			t.Fatalf("-domains %d recorded domains %d, want %d", c.domains, res.Domains, c.want)
		}
	}
}
