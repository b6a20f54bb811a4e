package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// TestRunVerifiedWorkloadExitsZero: the happy path prints VERIFIED
// and exits 0.
func TestRunVerifiedWorkloadExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-app", "spmv"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "VERIFIED") {
		t.Fatalf("stdout lacks VERIFIED:\n%s", out.String())
	}
}

// TestRunFailedVerificationExitsNonZero is the regression test for
// the exit-status contract: a run whose numerical verification fails
// must exit non-zero, not merely print FAILED. The impossible
// tolerance (-tol -1) makes the failure deterministic.
func TestRunFailedVerificationExitsNonZero(t *testing.T) {
	for _, app := range []string{"spmv", "cholesky", "stencil", "nbody"} {
		t.Run(app, func(t *testing.T) {
			var out, errOut strings.Builder
			code := run(context.Background(), []string{"-app", app, "-tol", "-1"}, &out, &errOut)
			if code == 0 {
				t.Fatalf("failed verification exited 0; stdout:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "FAILED") {
				t.Fatalf("stdout lacks FAILED:\n%s", out.String())
			}
		})
	}
}

// TestRunBadFlagsExitNonZero: usage errors fail fast with a message.
func TestRunBadFlagsExitNonZero(t *testing.T) {
	cases := [][]string{
		{"-app", "fft"},
		{"-fidelity", "exact"},
		{"-ranks", "0"},
		{"-seed", "0"},
		{"-app", "jobs", "-jobs", "-1"},
		{"-nosuchflag"},
		{"-app", "traffic", "-topo", "ring"},
		{"-app", "traffic", "-topo", "fattree", "-pattern", "neighbor"},
		{"-app", "traffic", "-topo", "crossbar", "-domains", "2"},
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := run(context.Background(), args, &out, &errOut); code == 0 {
			t.Errorf("%v exited 0", args)
		} else if errOut.Len() == 0 {
			t.Errorf("%v produced no diagnostic", args)
		}
	}
}

// TestRunCancelledContextExitsNonZero: an interrupted run reports the
// cancellation instead of a result.
func TestRunCancelledContextExitsNonZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut strings.Builder
	if code := run(ctx, []string{"-app", "spmv"}, &out, &errOut); code == 0 {
		t.Fatalf("cancelled run exited 0; stdout:\n%s", out.String())
	}
}

// TestRunStoreReplay: a stored run replays byte-identically without
// simulating, and the replay keeps the exit-status contract for both
// verified and failed runs.
func TestRunStoreReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")

	var fresh, errOut strings.Builder
	if code := run(context.Background(), []string{"-app", "spmv", "-store", dir}, &fresh, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	var replay, replayErr strings.Builder
	code := run(context.Background(), []string{"-app", "spmv", "-store", dir, "-resume"}, &replay, &replayErr)
	if code != 0 {
		t.Fatalf("replay exit %d, stderr:\n%s", code, replayErr.String())
	}
	if replay.String() != fresh.String() {
		t.Fatalf("replay is not byte-identical:\n--- fresh ---\n%s--- replay ---\n%s", fresh.String(), replay.String())
	}
	if !strings.Contains(replayErr.String(), "replayed stored run") {
		t.Fatalf("replay did not announce itself:\n%s", replayErr.String())
	}

	// A different point is a miss: -resume simulates (and stores) it.
	var other, otherErr strings.Builder
	if code := run(context.Background(), []string{"-app", "spmv", "-ranks", "8", "-store", dir, "-resume"}, &other, &otherErr); code != 0 {
		t.Fatalf("miss exit %d, stderr:\n%s", code, otherErr.String())
	}
	if strings.Contains(otherErr.String(), "replayed stored run") {
		t.Fatal("different knobs replayed the wrong stored run")
	}

	// A stored failed verification replays as exit 1.
	var bad strings.Builder
	if code := run(context.Background(), []string{"-app", "spmv", "-tol", "-1", "-store", dir}, &bad, &errOut); code != 1 {
		t.Fatalf("failed verification exit %d", code)
	}
	var badReplay, badReplayErr strings.Builder
	if code := run(context.Background(), []string{"-app", "spmv", "-tol", "-1", "-store", dir, "-resume"}, &badReplay, &badReplayErr); code != 1 {
		t.Fatalf("failed-verification replay exit %d", code)
	}
	if !strings.Contains(badReplayErr.String(), "replayed stored run") || badReplay.String() != bad.String() {
		t.Fatal("failed-verification replay did not serve the stored bytes")
	}
}

// TestRunStoreFlagValidation: -resume needs -store, and -store refuses
// the observability exports it cannot persist.
func TestRunStoreFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-app", "spmv", "-resume"},
		{"-app", "spmv", "-store", "x", "-trace", "t.json"},
		{"-app", "spmv", "-store", "x", "-metrics", "m.csv"},
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := run(context.Background(), args, &out, &errOut); code == 0 {
			t.Errorf("%v exited 0", args)
		} else if errOut.Len() == 0 {
			t.Errorf("%v produced no diagnostic", args)
		}
	}
}

// TestRunWritesArtifacts: -trace and -metrics produce the files.
func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	metricsPath := filepath.Join(dir, "m.csv")
	var out, errOut strings.Builder
	code := run(context.Background(), []string{
		"-app", "jobs", "-jobs", "8",
		"-trace", tracePath, "-metrics", metricsPath,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	for _, p := range []string{tracePath, metricsPath} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestRunTrafficScenario: the fabric-traffic flags reach the workload.
func TestRunTrafficScenario(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{
		"-app", "traffic", "-topo", "fattree", "-ranks", "32", "-pattern", "alltoall",
		"-msgbytes", "512", "-error", "0.01",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s\nstdout:\n%s", code, errOut.String(), out.String())
	}
	for _, want := range []string{"fattree=32", "pattern=alltoall", "error=0.01", "retransmits"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, out.String())
		}
	}
}

// TestStoreSharedWithDeepd: a point deeprun stores is a deepd record —
// a serve.Server booted on the same store answers the equivalent
// hand-written spec from the store, with identical text, and never
// simulates.
func TestStoreSharedWithDeepd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	var fresh, errOut strings.Builder
	if code := run(context.Background(), []string{"-app", "spmv", "-store", dir}, &fresh, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := serve.New(serve.Options{Store: st})
	defer srv.Drain(5 * time.Second)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := `{"workload": {"kind": "spmv"},
		"machine": {"cluster_nodes": 4, "booster_nodes": 4, "cluster_ranks": 4}, "seed": 42}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var sub serve.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sub.State != serve.StateDone || !sub.CacheHit {
		t.Fatalf("equivalent spec was not a store hit: %+v", sub)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(text) != fresh.String() {
		t.Fatalf("deepd text differs from deeprun's:\n--- deeprun ---\n%s--- deepd ---\n%s", fresh.String(), text)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats serve.ServerStats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.StoreWarmed != 1 {
		t.Fatalf("store warmed %d entries, want the 1 deeprun wrote", stats.StoreWarmed)
	}
	e, ok, err := st.Get(sub.Key)
	if err != nil || !ok {
		t.Fatalf("no stored record under %s: ok=%v err=%v", sub.Key, ok, err)
	}
	if e.Meta != "workload:spmv" {
		t.Fatalf("stored record meta %q, want workload:spmv", e.Meta)
	}
}
