package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// deepd-mix: rounds of a real serve.Server over httptest, backed by an
// fsync'd store in a fresh directory, driven closed-loop by two
// clients. A round has two phases:
//
//	fill     the server starts on an empty store; misses simulate and
//	         write through to the store
//	restart  the server is drained, the store closed and reopened, and
//	         a new server boots on it; requests read from the LRU and
//	         the store
//
// An op is one request, timed from submit until the result body has
// been read. The rounds replay the same seeded streams.

const (
	deepdClients = 2
	deepdWorkers = 2
	// drawsPerPhase is the number of Zipf draws in each phase of a round.
	// It keeps the round's 128 store writes, whose fsync latency the
	// host's disk decides, a small part of the round.
	drawsPerPhase = 2400
)

type deepdMix struct {
	cfg    config
	stream specStream
	bodies [][]byte // JSON of each distinct spec
	golden []byte   // E01 table, compared at the published seed
	client *http.Client

	// first maps a content key to the /result (and, for the registry
	// experiment, /text) bytes first computed for it in the current
	// round's store.
	mu    sync.Mutex
	first map[string][]byte
}

func newDeepdMix(cfg config) *deepdMix { return &deepdMix{cfg: cfg} }

func (w *deepdMix) setup() error {
	w.stream = genStream(w.cfg.seed, drawsPerPhase)
	w.bodies = make([][]byte, len(w.stream.Specs))
	for i := range w.stream.Specs {
		b, err := json.Marshal(&w.stream.Specs[i])
		if err != nil {
			return err
		}
		w.bodies[i] = b
	}
	golden, err := os.ReadFile(filepath.Join(goldenDir, "E01.golden"))
	if err != nil {
		return err
	}
	w.golden = golden
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return err
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     deepdClients,
		MaxIdleConnsPerHost: deepdClients,
		DisableCompression:  true,
	}}
	return nil
}

func (w *deepdMix) run(ctx context.Context, d time.Duration, ph *phase) error {
	for {
		if err := w.round(ctx, ph); err != nil || ph.timed() >= d {
			return err
		}
	}
}

// daemon is one booted server on one store.
type daemon struct {
	st  *store.Store
	srv *serve.Server
	hs  *httptest.Server
}

// boot opens the store in dir and starts a server on it. The spans of
// a restart (reopening a filled store) are store.open and
// serve.restart; those of a first boot store.create and serve.boot.
func (w *deepdMix) boot(dir string, ph *phase, restart bool) (*daemon, error) {
	openSpan, bootSpan := "store.create", "serve.boot"
	if restart {
		openSpan, bootSpan = "store.open", "serve.restart"
	}
	sp := ph.tr.start(openSpan, nil, 0, 0)
	st, err := store.Open(dir, store.Options{})
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = ph.tr.start(bootSpan, nil, 0, 0)
	srv := serve.New(serve.Options{Workers: deepdWorkers, CacheEntries: cacheEntries, Store: st})
	sp.end()
	return &daemon{st: st, srv: srv, hs: httptest.NewServer(srv.Handler())}, nil
}

// stop drains the server, closes the listener and the store, and
// returns the server's final stats.
func (w *deepdMix) stop(d *daemon, ph *phase) (*serve.ServerStats, error) {
	st, err := w.stats(d)
	sp := ph.tr.start("serve.drain", nil, 0, 0)
	clean := d.srv.Drain(time.Minute)
	sp.end()
	d.hs.Close()
	w.client.CloseIdleConnections()
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	if err == nil && !clean {
		err = fmt.Errorf("drain timed out")
	}
	return st, err
}

func (w *deepdMix) stats(d *daemon) (*serve.ServerStats, error) {
	resp, err := w.client.Get(d.hs.URL + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	st := &serve.ServerStats{}
	return st, json.NewDecoder(resp.Body).Decode(st)
}

// round runs one fill and one restart phase on a fresh store.
func (w *deepdMix) round(ctx context.Context, ph *phase) error {
	t0 := time.Now()
	dir, err := os.MkdirTemp(tmpDir, "deepd-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := w.boot(dir, ph, false)
	if err != nil {
		return err
	}
	ph.mu.Lock()
	ph.boots = append(ph.boots, time.Since(t0))
	ph.mu.Unlock()
	w.mu.Lock()
	w.first = map[string][]byte{}
	w.mu.Unlock()

	took := w.drive(ctx, d, w.stream.Fill, ph)
	fill, err := w.stop(d, ph)
	if err != nil {
		return err
	}

	if d, err = w.boot(dir, ph, true); err != nil {
		return err
	}
	took += w.drive(ctx, d, w.stream.Restart, ph)
	again, err := w.stop(d, ph)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	submitted := float64(fill.Submitted + again.Submitted)
	ph.count("serve.cache_hit_ratio", float64(fill.CacheHits+again.CacheHits)/submitted)
	ph.count("serve.store_hits", float64(fill.StoreHits+again.StoreHits))
	ph.count("serve.coalesced", float64(fill.Coalesced+again.Coalesced))
	ph.count("serve.evictions", float64(fill.Cache.Evictions+again.Cache.Evictions))
	if s := again.Store; s != nil {
		ph.count("store.entries", float64(s.Entries))
		ph.count("store.disk_mb", float64(s.DiskBytes)/1e6)
		ph.count("store.live_ratio", s.LiveRatio)
	}
	ph.addPass(len(w.stream.Fill)+len(w.stream.Restart), took)
	return nil
}

// drive sends the stream from deepdClients closed-loop clients, each
// sending its next request when the previous one has returned, and
// returns how long the stream took.
func (w *deepdMix) drive(ctx context.Context, d *daemon, stream []int, ph *phase) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range deepdClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				w.request(d.hs.URL, stream[i], c+1, ph)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// submitReply is the part of the submit response the client reads.
type submitReply struct {
	ID       string      `json:"id"`
	Key      string      `json:"key"`
	State    serve.State `json:"state"`
	CacheHit bool        `json:"cache_hit"`
}

// request runs one job: submit, wait for a terminal state unless the
// submit already answered it, fetch the result; then the checks.
func (w *deepdMix) request(base string, spec, lane int, ph *phase) {
	op := ph.nextOp()
	root := ph.tr.start("deepd.request", nil, op, lane)
	t0 := time.Now()
	hit, rep, body, err := w.job(base, spec, root, op, lane, ph)
	lat := time.Since(t0)
	root.end()
	if err == nil {
		err = w.check(base, spec, rep, body)
	}
	if err != nil {
		err = fmt.Errorf("deepd-mix spec %d: %w", spec, err)
	}
	ph.record(lat, err)
	ph.mu.Lock()
	if hit {
		ph.hitLat = append(ph.hitLat, lat)
	} else {
		ph.missLat = append(ph.missLat, lat)
	}
	ph.mu.Unlock()
}

// job is the timed part of a request.
func (w *deepdMix) job(base string, spec int, root *span, op, lane int, ph *phase) (hit bool, rep submitReply, body []byte, err error) {
	sp := ph.tr.start("serve.submit", root, op, lane)
	err = w.do(http.MethodPost, base+"/v1/jobs", w.bodies[spec], http.StatusAccepted, &rep)
	sp.end()
	if err != nil {
		return false, rep, nil, err
	}
	hit = rep.CacheHit
	if rep.State != serve.StateDone {
		sp = ph.tr.start("serve.wait", root, op, lane)
		var coalesced bool
		coalesced, err = w.wait(base + "/v1/jobs/" + rep.ID + "/events")
		sp.end()
		if err != nil {
			return false, rep, nil, err
		}
		hit = hit || coalesced
	}
	sp = ph.tr.start("serve.fetch", root, op, lane)
	body, err = w.get(base + "/v1/jobs/" + rep.ID + "/result")
	sp.end()
	return hit, rep, body, err
}

// wait reads the job's event stream until it ends in a terminal
// state; coalesced reports whether the job rode on an identical
// in-flight job.
func (w *deepdMix) wait(url string) (coalesced bool, err error) {
	resp, err := w.client.Get(url)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		typ, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch serve.State(typ) {
		case "coalesced":
			coalesced = true
		case serve.StateDone:
			_, err := io.Copy(io.Discard, resp.Body)
			return coalesced, err
		case serve.StateFailed, serve.StateCancelled:
			return coalesced, fmt.Errorf("job %s", typ)
		}
	}
	if err := sc.Err(); err != nil {
		return coalesced, err
	}
	return coalesced, fmt.Errorf("event stream ended without a terminal state")
}

// check holds every result to the bytes first computed for its content
// key in this round's store, requires workload results to be verified,
// and holds the registry experiment's text to its golden table.
func (w *deepdMix) check(base string, spec int, rep submitReply, body []byte) error {
	if err := w.sameAsFirst(rep.Key, body); err != nil {
		return fmt.Errorf("/result: %w", err)
	}
	s := &w.stream.Specs[spec]
	if s.Workload != nil {
		var res struct {
			Workload *struct {
				Verified bool `json:"verified"`
			} `json:"workload"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			return err
		}
		if res.Workload == nil || !res.Workload.Verified {
			return fmt.Errorf("workload result not verified")
		}
		return nil
	}
	// The registry experiment: its rendered table too.
	text, err := w.get(base + "/v1/jobs/" + rep.ID + "/text")
	if err != nil {
		return err
	}
	if err := w.sameAsFirst(rep.Key+"/text", text); err != nil {
		return fmt.Errorf("/text: %w", err)
	}
	if w.cfg.seed == publishedSeed && !bytes.Equal(text, w.golden) {
		return fmt.Errorf("/text differs from %s/E01.golden", goldenDir)
	}
	return nil
}

// sameAsFirst compares b with the bytes first recorded under key, or
// records them.
func (w *deepdMix) sameAsFirst(key string, b []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if want, ok := w.first[key]; ok {
		if !bytes.Equal(b, want) {
			return fmt.Errorf("bytes differ from the first computation for key %.12s", key)
		}
		return nil
	}
	w.first[key] = b
	return nil
}

// do sends one JSON request and decodes the reply.
func (w *deepdMix) do(method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// get fetches a body that must come back 200.
func (w *deepdMix) get(url string) ([]byte, error) {
	resp, err := w.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}
