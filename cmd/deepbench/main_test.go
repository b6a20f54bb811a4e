package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/deep"
	"repro/internal/serve"
	"repro/internal/store"
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
		if err := runBench(context.Background(), io.Discard, &deep.Runner{Domains: c.domains}, []string{"E04"}, 1, true, dir, nil); err != nil {
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

// deepbench runs the CLI in-process and returns its exit code, stdout
// and stderr.
func deepbench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// storeStats reopens the store in dir and reports its state.
func storeStats(t *testing.T, dir string) store.Stats {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return st.Stats()
}

// golden reads an experiment's published table.
func golden(t *testing.T, id string) string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", "deep", "testdata", id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// mustRun runs the CLI and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) (string, string) {
	t.Helper()
	code, stdout, stderr := deepbench(t, args...)
	if code != 0 {
		t.Fatalf("deepbench %v exited %d: %s", args, code, stderr)
	}
	return stdout, stderr
}

func TestRunRefusals(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	for _, c := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-nope"}, 2, "flag provided but not defined"},
		{[]string{"-csv", "-json", "-run", "E01"}, 1, "mutually exclusive"},
		{[]string{"-resume", "-run", "E01"}, 1, "-resume needs -store"},
		{[]string{"-store", dir, "-bench", "1", "-run", "E01"}, 1, "-store cannot be combined with -bench"},
		{[]string{"-store", dir, "-trace", filepath.Join(dir, "t.json"), "-run", "E01"}, 1, "-store cannot be combined with -trace"},
		{[]string{"-speedup", "1,2", "-run", "E01"}, 1, "-speedup needs -bench"},
		{[]string{"-run", " , "}, 1, "names no experiments"},
		{[]string{"-run", "E99"}, 1, "try -list"},
		{[]string{"-run", "E99", "-store", dir}, 1, "try -list"},
	} {
		code, stdout, stderr := deepbench(t, c.args...)
		if code != c.code || !strings.Contains(stderr, c.msg) {
			t.Errorf("deepbench %v: exit %d, stderr %q; want exit %d mentioning %q", c.args, code, stderr, c.code, c.msg)
		}
		if stdout != "" {
			t.Errorf("deepbench %v: refusal wrote stdout %q", c.args, stdout)
		}
	}
}

// TestResumedSweepSkipsStoredPoints: a second, wider sweep
// over a store (reopened, as by a new process) simulates only the
// point the first sweep did not finish, prints what a fresh sweep
// prints, and a resumed point re-renders the golden bytes.
func TestResumedSweepSkipsStoredPoints(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	mustRun(t, "-run", "E01,E04", "-store", dir, "-parallel", "2")
	if s := storeStats(t, dir); s.Entries != 2 {
		t.Fatalf("first sweep stored %d records, want 2", s.Entries)
	}
	fresh, _ := mustRun(t, "-run", "E01,E04,E12")
	resumed, stderr := mustRun(t, "-run", "E01,E04,E12", "-store", dir, "-resume")
	if !strings.Contains(stderr, "resumed 2 of 3 points") {
		t.Fatalf("resumed sweep reported %q", stderr)
	}
	if resumed != fresh {
		t.Fatalf("resumed sweep output differs from a fresh sweep:\n--- resumed ---\n%s--- fresh ---\n%s", resumed, fresh)
	}
	// Every record was written once: a re-simulated point would have
	// appended a second record for its key.
	if s := storeStats(t, dir); s.Entries != 3 || s.DiskBytes != s.LiveBytes {
		t.Fatalf("store after resume: %d records, %d of %d bytes live; want 3 records written once",
			s.Entries, s.LiveBytes, s.DiskBytes)
	}
	out, stderr := mustRun(t, "-run", "E01", "-store", dir, "-resume")
	if !strings.Contains(stderr, "resumed 1 of 1 points") || out != golden(t, "E01") {
		t.Fatalf("stored E01 (%q) does not re-render the golden:\n%s", stderr, out)
	}
}

// TestStoreSurvivesProcessRestart: a point written by one process and
// read back after the store is closed and reopened by another serves
// a resumed run the bytes the writing run printed.
func TestStoreSurvivesProcessRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	args := []string{"-run", "E01", "-csv", "-seed", "7", "-store", dir}
	written, _ := mustRun(t, args...)

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if infos := st.Query("E01"); len(infos) != 1 {
		t.Fatalf("store reopened with %d E01 records, want 1", len(infos))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, stderr := mustRun(t, append(args, "-resume")...)
	if !strings.Contains(stderr, "resumed 1 of 1 points") {
		t.Fatalf("restarted store missed: %q", stderr)
	}
	if resumed != written {
		t.Fatalf("store hit after restart differs from the run that wrote it:\n--- resumed ---\n%s--- written ---\n%s", resumed, written)
	}
}

// TestStoreKeySeparation: a different seed is a different point, and
// spelled-out defaults are the same point.
func TestStoreKeySeparation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	mustRun(t, "-run", "E01", "-store", dir)
	if _, stderr := mustRun(t, "-run", "E01", "-store", dir, "-resume", "-seed", "7"); !strings.Contains(stderr, "resumed 0 of 1") {
		t.Fatalf("-seed 7 reused the default-seed point: %q", stderr)
	}
	if s := storeStats(t, dir); s.Entries != 2 {
		t.Fatalf("store holds %d records after the -seed 7 run, want 2", s.Entries)
	}
	if _, stderr := mustRun(t, "-run", "E01", "-store", dir, "-resume", "-scale", "1", "-fidelity", "default"); !strings.Contains(stderr, "resumed 1 of 1") {
		t.Fatalf("spelled-out defaults missed the stored point: %q", stderr)
	}
}

// TestCorruptStoredPayloadFallsBack: an undecodable stored payload is a
// miss; the point simulates afresh and is stored again.
func TestCorruptStoredPayloadFallsBack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	mustRun(t, "-run", "E01", "-store", dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	infos := st.Query("E01")
	if len(infos) != 1 {
		t.Fatalf("store has %d E01 records", len(infos))
	}
	if err := st.Put(&store.Entry{Key: infos[0].Key, Meta: "E01", Result: []byte("not json")}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	out, stderr := mustRun(t, "-run", "E01", "-store", dir, "-resume")
	if !strings.Contains(stderr, "resumed 0 of 1") || out != golden(t, "E01") {
		t.Fatalf("corrupt record served (%q):\n%s", stderr, out)
	}
	if _, stderr := mustRun(t, "-run", "E01", "-store", dir, "-resume"); !strings.Contains(stderr, "resumed 1 of 1") {
		t.Fatalf("re-simulated point was not stored again: %q", stderr)
	}
}

// TestStoreWithoutResumeRecomputes: -store alone persists every point
// but answers none from the store.
func TestStoreWithoutResumeRecomputes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	mustRun(t, "-run", "E01", "-store", dir)
	out, stderr := mustRun(t, "-run", "E01", "-store", dir)
	if strings.Contains(stderr, "resumed") || out != golden(t, "E01") {
		t.Fatalf("-store without -resume: stderr %q, output:\n%s", stderr, out)
	}
	if s := storeStats(t, dir); s.Entries != 1 || s.DiskBytes <= s.LiveBytes {
		t.Fatalf("recomputed point not written again: %d records, %d of %d bytes live", s.Entries, s.LiveBytes, s.DiskBytes)
	}
}

// TestStoredPointIsDeepdRecord: the record deepbench stores for E01 is
// the one deepd stores for the job {"experiment": "E01"}: the same
// content key and the same bytes, so either tool serves the other's.
func TestStoredPointIsDeepdRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	mustRun(t, "-run", "E01", "-store", dir)
	spec := &serve.JobSpec{Experiment: "E01"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	key, err := spec.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.Execute(context.Background(), key, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, ok, err := st.Get(key)
	if err != nil || !ok {
		t.Fatalf("no record under the deepd key %s (ok=%v, err=%v)", key, ok, err)
	}
	if !bytes.Equal(got.Result, want.Result) || !bytes.Equal(got.Text, want.Text) {
		t.Fatalf("stored bytes differ from serve.Execute's:\n%s\n%s", got.Result, want.Result)
	}
	if got.Meta != "E01" || !got.Verified || st.Stats().Entries != 1 {
		t.Fatalf("record meta %q verified %v, %d records", got.Meta, got.Verified, st.Stats().Entries)
	}
}

// TestFailedStoreWritesAreReported: a point whose record cannot be
// written still reaches the report, and the failure is counted on
// stderr.
func TestFailedStoreWritesAreReported(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "results"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close() // every Put now fails
	var stderr bytes.Buffer
	rep, resumed, err := runStored(context.Background(), &stderr, &deep.Runner{Parallel: 2}, st, serve.JobSpec{}, []string{"E01", "E04"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 || len(rep.Results) != 2 || rep.Results[0].Table == nil || rep.Results[1].Table == nil {
		t.Fatalf("report lost its fresh points: resumed %d, %+v", resumed, rep.Results)
	}
	if !strings.Contains(stderr.String(), "2 store writes failed") {
		t.Fatalf("failed writes not reported: %q", stderr.String())
	}
}
