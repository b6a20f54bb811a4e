package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the metric lists of ../BENCHMARK.json from the catalogue")

// benchmarkJSON is the layout of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func catalogue() (e2e, layers []jsonMetric) {
	for _, m := range endToEndMetrics {
		b := m.Bound
		e2e = append(e2e, jsonMetric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayerMetrics() {
		layers = append(layers, jsonMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return e2e, layers
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json's metric
// lists equal to what the benchmark reports. Regenerate them with
// go test -run Catalogue -update.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	e2e, layers := catalogue()
	if *update {
		bj.EndToEnd, bj.PerLayer = e2e, layers
		out, err := json.MarshalIndent(bj, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !reflect.DeepEqual(bj.EndToEnd, e2e) {
		t.Errorf("BENCHMARK.json end_to_end differs from the catalogue")
	}
	if !reflect.DeepEqual(bj.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer differs from the catalogue")
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, err := newWorkload(config{workload: w.Name}); err != nil {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
	if !reflect.DeepEqual(names, []string{"weakscale", "mechanisms", "deepd-mix"}) {
		t.Errorf("workloads = %v", names)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(e2e, layers...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range perLayerMetrics() {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s does not say which end-to-end metric it should move", m.Name)
		}
	}
	if len(layers) > 128 || len(e2e) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits", len(layers), len(e2e))
	}
}
