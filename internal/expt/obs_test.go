package expt

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
)

// obsConfig is the unobserved run config of the observability tests:
// scale 1, and a two-point E15 sweep so its packet runs stay quick.
func obsConfig(id string) *Config {
	cfg := &Config{Scale: 1}
	if id == "E15" {
		cfg.MaxNodes = 5000
	}
	return cfg
}

// traceWith runs one experiment with a fresh tracing+metrics observer
// and returns the rendered table, the exported Chrome trace and the
// exported metrics CSV.
func traceWith(t *testing.T, e Experiment, fid fabric.Fidelity) (table, trace, csv []byte) {
	t.Helper()
	o := obs.New(true, sim.FromSeconds(0.5))
	cfg := obsConfig(e.ID)
	cfg.Fidelity, cfg.Obs = fid, o
	tab, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s (%v): %v", e.ID, fid, err)
	}
	var tb, tr, cs bytes.Buffer
	if err := tab.Render(&tb); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteChromeTrace(&tr); err != nil {
		t.Fatalf("%s: WriteChromeTrace: %v", e.ID, err)
	}
	if err := o.WriteMetricsCSV(&cs); err != nil {
		t.Fatalf("%s: WriteMetricsCSV: %v", e.ID, err)
	}
	return tb.Bytes(), tr.Bytes(), cs.Bytes()
}

// TestTraceDeterminism is the observability analogue of the fidelity
// regression: the same experiment run twice with the same seed, under
// both packet and auto fidelity, must export byte-identical traces and
// metrics. A nondeterministic map walk, an unsorted scope, or a fast
// path that commits a flow at a different virtual time all surface
// here. E13 exercises the full span surface (faults, checkpoints,
// requeues); E16 exercises power transitions and link telemetry; E15
// exercises the partitioned-kernel coordinator at its one-domain default.
func TestTraceDeterminism(t *testing.T) {
	for _, id := range []string{"E13", "E15", "E16"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			for _, fid := range []fabric.Fidelity{fabric.FidelityPacket, fabric.FidelityAuto} {
				tab1, tr1, csv1 := traceWith(t, e, fid)
				tab2, tr2, csv2 := traceWith(t, e, fid)
				if !bytes.Equal(tr1, tr2) {
					t.Fatalf("%s (%v): trace not byte-identical across runs", id, fid)
				}
				if !bytes.Equal(csv1, csv2) {
					t.Fatalf("%s (%v): metrics not byte-identical across runs", id, fid)
				}
				if !bytes.Equal(tab1, tab2) {
					t.Fatalf("%s (%v): table not deterministic while observed", id, fid)
				}
			}
		})
	}
}

// TestObservationIsInert pins the tentpole's zero-perturbation
// requirement end to end: the rendered table of an observed run is
// byte-identical to an unobserved one. Sampling rides the engine's
// probe and spans are reconstructed from state the model already
// tracks, so watching a run must never change what it computes.
func TestObservationIsInert(t *testing.T) {
	for _, id := range []string{"E13", "E14", "E15", "E16"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			bare := renderWith(t, e, obsConfig(id))
			observed, _, _ := traceWith(t, e, fabric.FidelityDefault)
			if !bytes.Equal(bare, observed) {
				t.Fatalf("%s table changes when observed:\n--- bare ---\n%s\n--- observed ---\n%s",
					id, bare, observed)
			}
		})
	}
}

// TestE13TraceContent asserts the resilience experiment's trace shows
// the story the paper tells: injected faults, checkpoint writes, and
// requeued jobs, all in valid Chrome form.
func TestE13TraceContent(t *testing.T) {
	e, ok := Get("E13")
	if !ok {
		t.Fatal("E13 not registered")
	}
	_, trace, csv := traceWith(t, e, fabric.FidelityDefault)

	var events []obs.ChromeEvent
	if err := json.Unmarshal(trace, &events); err != nil {
		t.Fatalf("E13 trace is not valid JSON: %v", err)
	}
	want := map[string]bool{
		"node-fail": false, "node-down": false, // injector instants and spans
		"checkpoint": false, "restore": false, // ckpt reconstruction
		"requeue": false, "requeue-wait": false, // kill/retry path
		"run": false, "done": false,
	}
	for _, ev := range events {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Fatalf("negative duration on %q", ev.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("E13 trace missing %q events", name)
		}
	}

	head := strings.SplitN(string(csv), "\n", 2)[0]
	if head != "run,metric,unit,t_s,value" {
		t.Fatalf("metrics CSV header = %q", head)
	}
	for _, metric := range []string{"queue_depth", "lost_work_s", "sim_events_executed"} {
		if !strings.Contains(string(csv), metric) {
			t.Errorf("metrics CSV missing %s", metric)
		}
	}
}
