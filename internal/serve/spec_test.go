package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/deep"
	"repro/internal/expt"
)

// normKey normalizes the spec and returns its content key.
func normKey(t *testing.T, spec *JobSpec) string {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatalf("normalize %+v: %v", spec, err)
	}
	key, err := spec.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestContentKeyCanonical: spelling out defaults must not change the
// content address — the property that makes the cache hit for
// equivalent requests from different clients.
func TestContentKeyCanonical(t *testing.T) {
	base := normKey(t, &JobSpec{Experiment: "E01"})
	for name, spec := range map[string]*JobSpec{
		"explicit default fidelity": {Experiment: "E01", Fidelity: "default"},
		"explicit scale 1":          {Experiment: "E01", Scale: 1},
		"deadline is a hint":        {Experiment: "E01", DeadlineS: 5},
	} {
		if got := normKey(t, spec); got != base {
			t.Errorf("%s: key %s != %s", name, got, base)
		}
	}
	workload := &JobSpec{Workload: &WorkloadSpec{Kind: "spmv"}}
	explicit := &JobSpec{Workload: &WorkloadSpec{Kind: "spmv", NX: 32, NY: 32, Iters: 10}}
	if normKey(t, workload) != normKey(t, explicit) {
		t.Error("defaulted and explicit spmv specs hash differently")
	}
	padded := &JobSpec{Workload: &WorkloadSpec{Kind: "spmv", N: 64, Steps: 3, Messages: 9, Topology: "fattree"}}
	if normKey(t, workload) != normKey(t, padded) {
		t.Error("fields spmv does not read change its key")
	}
	traffic := &JobSpec{Workload: &WorkloadSpec{Kind: "traffic"}}
	spelled := &JobSpec{Workload: &WorkloadSpec{Kind: "traffic", Topology: "torus", Pattern: "random"}}
	if normKey(t, traffic) != normKey(t, spelled) {
		t.Error("spelled-out traffic defaults change the key")
	}
}

// TestPinnedContentKeys pins one content key per workload kind and one
// experiment key, as computed before the traffic workload grew its
// topology, pattern and error-rate fields: stored results and cached
// clients depend on these addresses never moving.
func TestPinnedContentKeys(t *testing.T) {
	jobs := []deep.Job{{ID: 0, Arrival: 0, Duration: 5, Boosters: 2}, {ID: 1, Arrival: 1, Duration: 7, Boosters: 4, Owner: 1}}
	for name, c := range map[string]struct {
		spec *JobSpec
		key  string
	}{
		"experiment": {&JobSpec{Experiment: "E15", Seed: 7, Domains: 2, MaxWindow: 4, MaxNodes: 5000},
			"4d1e5549ae26622ffcdd61943862c30228cdc7ff16a4076f224151557582c9b7"},
		"cholesky": {&JobSpec{Workload: &WorkloadSpec{Kind: "cholesky", N: 32, TileSize: 16, Workers: 2}},
			"52e33107b2ccdf3963fb6e638bcba870878d60d5d362df4739bd0558c7ada409"},
		"spmv": {&JobSpec{Workload: &WorkloadSpec{Kind: "spmv", NX: 8, NY: 8, Iters: 2},
			Machine: &MachineSpec{ClusterNodes: 4, BoosterNodes: 4, ClusterRanks: 4}, Seed: 42},
			"7ed47859941b12749ee18f2c2a34d7fea0558743cbeda5db95c523990c472e68"},
		"stencil": {&JobSpec{Workload: &WorkloadSpec{Kind: "stencil", Ranks: 2, PlaceOnBooster: true}, Energy: true},
			"9b18f039c4f8fb95e588d1a61cac45412fdd3bae735efd904bd3792bfb7d980f"},
		"nbody": {&JobSpec{Workload: &WorkloadSpec{Kind: "nbody", N: 16, Steps: 2}, Fidelity: "flow"},
			"de29f0ece725e65752b367b1dd4311c2300f29f6a2543bacc95c2623fe2c1c99"},
		"jobs": {&JobSpec{Workload: &WorkloadSpec{Kind: "jobs", Dynamic: true, Jobs: jobs,
			Ckpt: &CkptSpec{IntervalS: 2, WriteS: 0.5}},
			Machine: &MachineSpec{BoosterNodes: 16, Faults: &FaultSpec{NodeMTBFS: 120, RepairS: 5}}},
			"e081bbb35e510350b28eeb0f7fc92d68a1a0dad73beaaa41d3059bfdba1e44b4"},
		"traffic": {&JobSpec{Workload: &WorkloadSpec{Kind: "traffic", Messages: 64, MsgBytes: 1024},
			Machine: &MachineSpec{BoosterTorus: []int{2, 2, 2}}, Fidelity: "packet", Domains: 2},
			"7fa3cc9b0ec7772a9d544e31784fb2a0f56f62e8f35391cd4c73437fa9da8358"},
	} {
		if got := normKey(t, c.spec); got != c.key {
			t.Errorf("%s: key %s, pinned %s", name, got, c.key)
		}
	}
}

// TestRunnerSeesEveryExptKnob: an experiment job's Runner receives
// every expt.Spec knob. The fields are iterated by reflection, so a
// knob added to expt.Spec without reaching the Runner fails here
// instead of being silently dropped while still keying the cache.
func TestRunnerSeesEveryExptKnob(t *testing.T) {
	nonZero := map[reflect.Kind]any{
		reflect.Uint64: uint64(7), reflect.Float64: 2.0, reflect.String: "flow",
		reflect.Bool: true, reflect.Int: 4,
	}
	knobs := reflect.TypeOf(expt.Spec{})
	for i := range knobs.NumField() {
		name := knobs.Field(i).Name
		t.Run(name, func(t *testing.T) {
			spec := &JobSpec{Experiment: "E15"}
			field := reflect.ValueOf(spec).Elem().FieldByName(name)
			v, ok := nonZero[knobs.Field(i).Type.Kind()]
			if !field.IsValid() || !ok {
				t.Fatalf("expt.Spec.%s has no JobSpec field or test value", name)
			}
			field.Set(reflect.ValueOf(v).Convert(field.Type()))
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			if got := reflect.ValueOf(spec.runner(nil)).Elem().FieldByName(name); !got.IsValid() || got.IsZero() {
				t.Fatalf("Runner.%s not set from the spec", name)
			}
		})
	}
}

// TestExperimentJobHonoursMaxWindow: an E15 job on the partitioned
// kernel with adaptive windows produces exactly the table — Summary
// included — that a Runner with the same knobs produces.
func TestExperimentJobHonoursMaxWindow(t *testing.T) {
	spec := &JobSpec{Experiment: "E15", Domains: 2, MaxWindow: 4, MaxNodes: 2000}
	key := normKey(t, spec)
	entry, err := Execute(context.Background(), key, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var payload ResultPayload
	if err := json.Unmarshal(entry.Result, &payload); err != nil {
		t.Fatal(err)
	}
	rep, err := (&deep.Runner{Domains: 2, MaxWindow: 4, MaxNodes: 2000}).Run(context.Background(), "E15")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(rep.Results[0].Table)
	got, _ := json.Marshal(payload.Experiment.Table)
	if !bytes.Equal(got, want) {
		t.Fatalf("deepd table differs from the Runner's:\n got %s\nwant %s", got, want)
	}
	if _, ok := payload.Experiment.Table.Summary["kernel_max_window"]; !ok {
		t.Fatalf("summary lacks kernel_max_window: %v", payload.Experiment.Table.Summary)
	}
}

// TestContentKeySeparates: anything that changes what a job computes
// or records must change the content address.
func TestContentKeySeparates(t *testing.T) {
	keys := map[string]string{}
	for name, spec := range map[string]*JobSpec{
		"e01":          {Experiment: "E01"},
		"e04":          {Experiment: "E04"},
		"e01 seeded":   {Experiment: "E01", Seed: 7},
		"e01 scaled":   {Experiment: "E01", Scale: 2},
		"e01 flow":     {Experiment: "E01", Fidelity: "flow"},
		"e01 energy":   {Experiment: "E01", Energy: true},
		"e01 traced":   {Experiment: "E01", Trace: true},
		"e01 sampled":  {Experiment: "E01", MetricsEveryS: 0.5},
		"spmv":         {Workload: &WorkloadSpec{Kind: "spmv"}},
		"spmv big":     {Workload: &WorkloadSpec{Kind: "spmv", NX: 64}},
		"spmv booster": {Workload: &WorkloadSpec{Kind: "spmv", PlaceOnBooster: true}},
		"spmv machine": {Workload: &WorkloadSpec{Kind: "spmv"}, Machine: &MachineSpec{ClusterNodes: 16}},
	} {
		key := normKey(t, spec)
		if prev, dup := keys[key]; dup {
			t.Errorf("%s and %s share a content key", name, prev)
		}
		keys[key] = name
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := map[string]struct {
		spec *JobSpec
		code ErrorCode
	}{
		"empty":        {&JobSpec{}, ErrInvalidRequest},
		"both kinds":   {&JobSpec{Experiment: "E01", Workload: &WorkloadSpec{Kind: "spmv"}}, ErrInvalidRequest},
		"expt machine": {&JobSpec{Experiment: "E01", Machine: &MachineSpec{ClusterNodes: 4}}, ErrInvalidRequest},
		"unknown expt": {&JobSpec{Experiment: "E99"}, ErrUnknownExperiment},
		"bad fidelity": {&JobSpec{Experiment: "E01", Fidelity: "exact"}, ErrInvalidRequest},
		"neg scale":    {&JobSpec{Experiment: "E01", Scale: -1}, ErrInvalidRequest},
		"neg deadline": {&JobSpec{Experiment: "E01", DeadlineS: -1}, ErrInvalidRequest},
		"neg metrics":  {&JobSpec{Experiment: "E01", MetricsEveryS: -1}, ErrInvalidRequest},
		"no kind":      {&JobSpec{Workload: &WorkloadSpec{}}, ErrUnknownWorkload},
		"bad kind":     {&JobSpec{Workload: &WorkloadSpec{Kind: "offload"}}, ErrUnknownWorkload},
		"empty jobs":   {&JobSpec{Workload: &WorkloadSpec{Kind: "jobs"}}, ErrInvalidRequest},
		"bad job": {&JobSpec{Workload: &WorkloadSpec{Kind: "jobs",
			Jobs: []deep.Job{{Arrival: -1, Duration: 1, Boosters: 1}}}}, ErrInvalidRequest},
		"bad torus": {&JobSpec{Workload: &WorkloadSpec{Kind: "spmv"},
			Machine: &MachineSpec{BoosterTorus: []int{2, 2}}}, ErrInvalidRequest},
		"torus contradiction": {&JobSpec{Workload: &WorkloadSpec{Kind: "spmv"},
			Machine: &MachineSpec{BoosterNodes: 9, BoosterTorus: []int{2, 2, 2}}}, ErrInvalidRequest},
		"bad machine": {&JobSpec{Workload: &WorkloadSpec{Kind: "spmv"},
			Machine: &MachineSpec{BoosterNodes: 4, BoosterWorkers: 8}}, ErrInvalidRequest},
		"unknown topology": {&JobSpec{Workload: &WorkloadSpec{Kind: "traffic", Topology: "ring"}}, ErrInvalidRequest},
		"unknown pattern":  {&JobSpec{Workload: &WorkloadSpec{Kind: "traffic", Pattern: "hotspot"}}, ErrInvalidRequest},
		"neighbor off torus": {&JobSpec{Workload: &WorkloadSpec{Kind: "traffic",
			Topology: "fattree", Pattern: "neighbor"}}, ErrInvalidRequest},
		"error rate 1": {&JobSpec{Workload: &WorkloadSpec{Kind: "traffic", ErrorRate: 1}}, ErrInvalidRequest},
	}
	for name, c := range cases {
		err := c.spec.Normalize()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		var typed *Error
		if !errors.As(err, &typed) {
			t.Errorf("%s: untyped error %v", name, err)
			continue
		}
		if typed.Code != c.code {
			t.Errorf("%s: code %s, want %s", name, typed.Code, c.code)
		}
	}
}

// TestNormalizeFaultsUnderDomains: fault injection on the partitioned
// kernel is refused at submit time — normalize exercises NewMachine's
// validation, so the client gets the clear message instead of a worker
// failing later.
func TestNormalizeFaultsUnderDomains(t *testing.T) {
	spec := &JobSpec{
		Workload: &WorkloadSpec{Kind: "spmv"},
		Machine:  &MachineSpec{Faults: &FaultSpec{NodeMTBFS: 50, RepairS: 2, HorizonS: 300}},
		Domains:  2,
	}
	err := spec.Normalize()
	if err == nil {
		t.Fatal("normalize accepted faults under domains > 1")
	}
	var typed *Error
	if !errors.As(err, &typed) || typed.Code != ErrInvalidRequest {
		t.Fatalf("error %v is not a typed ErrInvalidRequest", err)
	}
	if !strings.Contains(err.Error(), "not supported under the partitioned kernel") {
		t.Fatalf("error %q does not carry the partition message", err)
	}
}

// TestNormalizeTorusFillsNodes: a torus spec implies the node count.
func TestNormalizeTorusFillsNodes(t *testing.T) {
	spec := &JobSpec{
		Workload: &WorkloadSpec{Kind: "spmv"},
		Machine:  &MachineSpec{BoosterTorus: []int{3, 3, 3}},
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if spec.Machine.BoosterNodes != 27 {
		t.Fatalf("booster nodes = %d", spec.Machine.BoosterNodes)
	}
}
