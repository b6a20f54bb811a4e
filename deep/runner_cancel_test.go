package deep_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/deep"
)

// TestRunnerCancelMidRun cancels via the OnResult hook after the
// first completion: with a single worker, the remaining experiments
// must be recorded as ctx errors, never silently dropped, and the
// first result must survive intact.
func TestRunnerCancelMidRun(t *testing.T) {
	ids := []string{"E01", "E04", "E12", "E13"}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var order []string
	r := &deep.Runner{
		Parallel: 1,
		OnResult: func(res deep.RunResult) {
			mu.Lock()
			order = append(order, res.ID)
			mu.Unlock()
			cancel()
		},
	}
	rep, err := r.Run(ctx, ids...)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("joined error hides context.Canceled: %v", err)
	}
	if len(rep.Results) != len(ids) {
		t.Fatalf("%d results for %d experiments", len(rep.Results), len(ids))
	}
	if len(order) != len(ids) {
		t.Fatalf("OnResult fired %d times for %d experiments", len(order), len(ids))
	}
	// The single worker delivers the first completion before any other
	// experiment starts, so exactly one result can carry a table.
	done := 0
	for i, res := range rep.Results {
		if res.ID != ids[i] {
			t.Errorf("result %d is %s, want %s (request order must survive cancellation)", i, res.ID, ids[i])
		}
		switch {
		case res.Table != nil:
			done++
		case !errors.Is(res.Err, context.Canceled):
			t.Errorf("%s: err = %v, want context.Canceled", res.ID, res.Err)
		}
	}
	if done != 1 {
		t.Fatalf("%d experiments completed after cancel-on-first-result", done)
	}
}

// TestRunnerDeadlineBeforeStart: a context whose deadline has already
// passed yields per-experiment DeadlineExceeded without running
// anything.
func TestRunnerDeadlineBeforeStart(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rep, err := (&deep.Runner{Parallel: 2}).Run(ctx, "E01", "E04")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	for _, res := range rep.Results {
		if res.Table != nil {
			t.Errorf("%s produced a table under an expired deadline", res.ID)
		}
		if !errors.Is(res.Err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v", res.ID, res.Err)
		}
	}
}

// TestRunnerReusableAfterCancel: Run drains fully on cancellation (no
// leaked goroutines holding the report) and the same Runner value
// works again with a fresh context.
func TestRunnerReusableAfterCancel(t *testing.T) {
	r := &deep.Runner{Parallel: 1}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, "E01", "E04"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: %v", err)
	}

	rep, err := r.Run(context.Background(), "E01")
	if err != nil {
		t.Fatalf("runner unusable after a cancelled run: %v", err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Table == nil {
		t.Fatalf("fresh run produced no table: %+v", rep.Results)
	}
}

// TestRunnerOnResultSeesErrors: OnResult receives failure results
// too, with the error filled in.
func TestRunnerOnResultSeesErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var got []deep.RunResult
	var mu sync.Mutex
	r := &deep.Runner{OnResult: func(res deep.RunResult) {
		mu.Lock()
		got = append(got, res)
		mu.Unlock()
	}}
	if _, err := r.Run(ctx, "E01"); err == nil {
		t.Fatal("expected error")
	}
	if len(got) != 1 || got[0].ID != "E01" || got[0].Err == nil {
		t.Fatalf("OnResult saw %+v", got)
	}
}

// TestRunnerProgressLabels: the Progress hook reports every
// simulation run an event-driven experiment opens, without disturbing
// its output (the golden tests pin the output side).
func TestRunnerProgressLabels(t *testing.T) {
	var mu sync.Mutex
	var labels []string
	r := &deep.Runner{Progress: func(label string) {
		mu.Lock()
		labels = append(labels, label)
		mu.Unlock()
	}}
	rep, err := r.Run(context.Background(), "E13")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Table == nil {
		t.Fatal("E13 produced no table")
	}
	if len(labels) == 0 {
		t.Fatal("event-driven experiment reported no progress labels")
	}
	for _, l := range labels {
		if l == "" {
			t.Fatal("empty progress label")
		}
	}
}

// TestRunnerProgressE15Sequential: E15 at the default domain count
// reports one label per sweep point, like any K, so a default sweep is
// never silent on a progress stream.
func TestRunnerProgressE15Sequential(t *testing.T) {
	var labels []string
	r := &deep.Runner{MaxNodes: 5000, Progress: func(label string) { labels = append(labels, label) }}
	if _, err := r.Run(context.Background(), "E15"); err != nil {
		t.Fatal(err)
	}
	want := []string{"E15-torus3d-10x10x10-K1", "E15-torus3d-16x16x16-K1"}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("E15 progress labels %q, want %q", labels, want)
	}
}
