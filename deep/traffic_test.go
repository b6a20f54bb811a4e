package deep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/deep"
)

func runTraffic(t *testing.T, w deep.TorusTraffic, opts ...deep.Option) *deep.Result {
	t.Helper()
	m, err := deep.NewMachine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	env := m.NewEnv()
	res, err := deep.Run(context.Background(), env, w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTorusTrafficSequential(t *testing.T) {
	res := runTraffic(t, deep.TorusTraffic{Messages: 500},
		deep.WithBoosterTorus(4, 4, 4))
	if !res.Verified {
		t.Fatalf("sequential traffic not verified: %+v", res)
	}
	if res.Kernel == nil || res.Kernel.ExecutedEvents == 0 {
		t.Fatal("missing kernel counters")
	}
	if res.Kernel.Domains != 0 || len(res.Kernel.PerDomain) != 0 {
		t.Fatalf("sequential run leaked partitioned-kernel fields: %+v", res.Kernel)
	}
}

func TestTorusTrafficParallel(t *testing.T) {
	res := runTraffic(t, deep.TorusTraffic{Messages: 1000},
		deep.WithBoosterTorus(6, 6, 6), deep.WithDomains(3))
	if !res.Verified {
		t.Fatalf("partitioned traffic not verified: %+v", res)
	}
	k := res.Kernel
	if k == nil || k.Domains != 3 || len(k.PerDomain) != 3 || k.Windows == 0 {
		t.Fatalf("partitioned kernel counters incoherent: %+v", k)
	}
	var sum uint64
	for _, d := range k.PerDomain {
		sum += d.ExecutedEvents
		if d.MaxQueueDepth > k.MaxQueueDepth {
			t.Fatalf("aggregate max depth %d below domain %d's %d",
				k.MaxQueueDepth, d.Domain, d.MaxQueueDepth)
		}
	}
	if sum != k.ExecutedEvents {
		t.Fatalf("per-domain executed events sum %d != aggregate %d", sum, k.ExecutedEvents)
	}
	if k.CrossEvents == 0 {
		t.Fatal("expected cross-domain events on a 3-slab torus")
	}
}

// TestTorusTrafficStablePerK pins the determinism contract: two runs
// at the same fixed domain count produce byte-identical results.
func TestTorusTrafficStablePerK(t *testing.T) {
	run := func() []byte {
		res := runTraffic(t, deep.TorusTraffic{Messages: 800},
			deep.WithBoosterTorus(5, 5, 5), deep.WithDomains(5))
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical K=5 runs diverged:\n%s\n%s", a, b)
	}
}

// TestRunnerDomainsE15 drives the partitioned kernel through the
// Runner: the E15 table at K=2 must be byte-identical to the
// sequential kernel's.
func TestRunnerDomainsE15(t *testing.T) {
	render := func(k int) []byte {
		r := &deep.Runner{Domains: k, MaxNodes: 5000}
		rep, err := r.Run(context.Background(), "E15")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Results[0].Table.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, par := render(1), render(2)
	if !bytes.Equal(seq, par) {
		t.Fatalf("Runner K=2 E15 diverges from sequential:\n--- K=1 ---\n%s\n--- K=2 ---\n%s", seq, par)
	}
}

// TestTrafficScenarios runs the fabric-traffic workload over every
// supported topology x pattern x error rate x kernel combination (plus
// adaptive windows on the partitioned fabrics): each run must deliver
// every message, and the partitioned runs must really partition.
func TestTrafficScenarios(t *testing.T) {
	machine := []deep.Option{deep.WithBoosterTorus(4, 4, 2), deep.WithClusterNodes(32)}
	for _, topo := range []string{"torus", "fattree", "crossbar"} {
		for _, pattern := range []string{"random", "neighbor", "alltoall"} {
			for _, errRate := range []float64{0, 0.1} {
				for _, k := range []int{1, 2} {
					if pattern == "neighbor" && topo != "torus" ||
						k > 1 && (topo == "crossbar" || errRate > 0) {
						continue // refused; see TestTrafficRefusals
					}
					windows := []int{0}
					if k > 1 {
						windows = append(windows, 4)
					}
					for _, mw := range windows {
						name := fmt.Sprintf("%s/%s/err=%g/K=%d/maxwindow=%d", topo, pattern, errRate, k, mw)
						t.Run(name, func(t *testing.T) {
							opts := append([]deep.Option{deep.WithDomains(k), deep.WithMaxWindow(mw)}, machine...)
							res := runTraffic(t, deep.TorusTraffic{Messages: 300, Bytes: 1024,
								Topology: topo, Pattern: pattern, ErrorRate: errRate}, opts...)
							if !res.Verified {
								t.Fatalf("not verified: %s %v", res.Summary, res.Notes)
							}
							if got := res.Kernel.Domains; k > 1 && got != k {
								t.Fatalf("ran on %d domains, want %d", got, k)
							}
							if mw > 1 && res.Kernel.MaxWindow != mw {
								t.Fatalf("kernel max window %d, want %d", res.Kernel.MaxWindow, mw)
							}
							if n, _ := res.Metric("retransmits"); errRate > 0 && n == 0 {
								t.Fatalf("error rate %g caused no retransmits", errRate)
							}
						})
					}
				}
			}
		}
	}
}

// TestTrafficRefusals: combinations the fabric cannot model fail with
// an error before simulating — typed where the partitioned kernel is
// the reason.
func TestTrafficRefusals(t *testing.T) {
	cases := map[string]struct {
		w         deep.TorusTraffic
		opts      []deep.Option
		partition bool
	}{
		"crossbar K=2":     {deep.TorusTraffic{Topology: "crossbar"}, []deep.Option{deep.WithDomains(2)}, true},
		"error rate K=2":   {deep.TorusTraffic{ErrorRate: 1e-3}, []deep.Option{deep.WithDomains(2)}, true},
		"neighbor fattree": {deep.TorusTraffic{Topology: "fattree", Pattern: "neighbor"}, nil, false},
		"unknown topology": {deep.TorusTraffic{Topology: "ring"}, nil, false},
		"unknown pattern":  {deep.TorusTraffic{Pattern: "hotspot"}, nil, false},
		"error rate 1":     {deep.TorusTraffic{ErrorRate: 1}, nil, false},
	}
	for name, c := range cases {
		m, err := deep.NewMachine(c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		_, err = deep.Run(context.Background(), m.NewEnv(), c.w)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if errors.Is(err, deep.ErrPartitionUnsupported) != c.partition {
			t.Errorf("%s: errors.Is(ErrPartitionUnsupported) = %v for %v", name, !c.partition, err)
		}
	}
}
