package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one benchmark input set.
type workload interface {
	// setup generates the inputs from the seed and loads what the
	// checks need; it is timed for setup_s.
	setup() error
	// run executes whole passes or rounds, at least one, until at
	// least d of timed work has been recorded in ph.
	run(ctx context.Context, d time.Duration, ph *phase) error
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "weakscale":
		return newSimWorkload(cfg, weakscalePass, buildLargestE15Fabric), nil
	case "mechanisms":
		return newSimWorkload(cfg, mechanismsPass, nil), nil
	case "deepd-mix":
		return newDeepdMix(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want weakscale, mechanisms or deepd-mix)", cfg.workload)
}

// checker counts attempted and failed ops. An op fails when any check
// on its outputs fails.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

func (c *checker) op(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, err.Error())
		}
	}
}

func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

func (c *checker) messages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.msgs...)
}

// phase collects the samples of one timed phase. Workloads record into
// it from their client goroutines.
type phase struct {
	tr  *tracer
	chk *checker
	smp *sampler     // nil in the warm-up
	ops atomic.Int64 // op ids for spans

	mu      sync.Mutex
	lat     []time.Duration // every op
	hitLat  []time.Duration // deepd-mix: requests answered without simulating
	missLat []time.Duration // deepd-mix: requests that simulated
	boots   []time.Duration // deepd-mix: per-round store open + server boot
	// passes holds the timed duration and op count of every pass or
	// round.
	passes []pass
	// counters holds one value per pass or round of each per-layer
	// counter; the reported value is their median.
	counters map[string][]float64
}

type pass struct {
	ops      int
	took     time.Duration
	peakHeap uint64 // highest sampled HeapInuse
}

func (p *phase) nextOp() int { return int(p.ops.Add(1)) }

// addPass records one finished pass or round.
func (p *phase) addPass(ops int, took time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.passes = append(p.passes, pass{ops, took, p.smp.takeHeap()})
}

// timed is the summed duration of the recorded passes.
func (p *phase) timed() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var d time.Duration
	for _, ps := range p.passes {
		d += ps.took
	}
	return d
}

// record adds one finished op.
func (p *phase) record(lat time.Duration, err error) {
	p.chk.op(err)
	p.mu.Lock()
	p.lat = append(p.lat, lat)
	p.mu.Unlock()
}

// count records one pass's or round's value of a counter.
func (p *phase) count(name string, v float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.counters == nil {
		p.counters = map[string][]float64{}
	}
	p.counters[name] = append(p.counters[name], v)
}

// phaseResult is a finished phase with its process-level measurements.
type phaseResult struct {
	*phase
	allocBytes, allocs uint64
	peakGoroutines     int
	gcCycles           uint32
	gcPause            time.Duration
	cpuProfile         []byte
	cpu, alloc         map[string]float64 // traced: shares by layer
}

// measure runs one timed phase of at least d. With a tracer it also
// records spans, a CPU profile and the allocation profile.
func measure(ctx context.Context, w workload, d time.Duration, chk *checker, tr *tracer) (*phaseResult, error) {
	runtime.GC()
	var before []runtime.MemProfileRecord
	var cpuBuf bytes.Buffer
	if tr != nil {
		before = memProfile()
		if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
			return nil, err
		}
		tr.t0 = time.Now()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b0, n0 := heapAllocs()
	ph := &phase{tr: tr, chk: chk, smp: startSampler()}
	err := w.run(ctx, d, ph)
	res := &phaseResult{phase: ph}
	res.peakGoroutines = ph.smp.stop()
	b1, n1 := heapAllocs()
	runtime.ReadMemStats(&ms1)
	res.allocBytes, res.allocs = b1-b0, n1-n0
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	if tr != nil {
		pprof.StopCPUProfile()
		runtime.GC()
		res.alloc = shares(allocByLayer(before, memProfile()))
		res.cpuProfile = cpuBuf.Bytes()
		cpu, perr := cpuByLayer(res.cpuProfile)
		if perr != nil {
			return nil, perr
		}
		res.cpu = shares(cpu)
	}
	if err != nil {
		return nil, err
	}
	if len(ph.passes) == 0 {
		return nil, fmt.Errorf("phase completed no ops")
	}
	return res, nil
}

// opsPerSec is ops completed per second of the timed passes.
func (p *phaseResult) opsPerSec() float64 {
	var ops int
	for _, ps := range p.passes {
		ops += ps.ops
	}
	return float64(ops) / p.timed().Seconds()
}

// passRates lists each pass's ops per second.
func (p *phaseResult) passRates() []float64 {
	var rates []float64
	for _, ps := range p.passes {
		rates = append(rates, float64(ps.ops)/ps.took.Seconds())
	}
	return rates
}

// endToEnd computes every end-to-end metric of the phase, plus the
// latencies that go to the result file only.
func (p *phaseResult) endToEnd(setupS []float64) map[string]float64 {
	ops := float64(len(p.lat))
	var peaks []float64
	for _, ps := range p.passes {
		peaks = append(peaks, float64(ps.peakHeap))
	}
	setup := median(setupS)
	if len(p.boots) > 0 {
		setup += median(millis(p.boots)) / 1e3
	}
	out := map[string]float64{
		"setup_s":         setup,
		"ops_per_s":       p.opsPerSec(),
		"alloc_mb_per_op": float64(p.allocBytes) / ops / 1e6,
		"allocs_k_per_op": float64(p.allocs) / ops / 1e3,
		"peak_heap_mb":    median(peaks) / 1e6,
		"op_p50_ms":       median(millis(p.lat)),
	}
	maps.Copy(out, p.requestLatencies())
	return out
}

// requestLatencies are the deepd-mix request latencies, all requests
// and by class; none on the simulator workloads.
func (p *phaseResult) requestLatencies() map[string]float64 {
	if len(p.hitLat)+len(p.missLat) == 0 {
		return nil
	}
	lat, hit, miss := millis(p.lat), millis(p.hitLat), millis(p.missLat)
	return map[string]float64{
		"req_p50_ms":  median(lat),
		"req_p99_ms":  percentile(lat, 0.99),
		"hit_p50_ms":  median(hit),
		"hit_p99_ms":  percentile(hit, 0.99),
		"miss_p50_ms": median(miss),
		"miss_p99_ms": percentile(miss, 0.99),
	}
}

// perLayer computes every per-layer metric of a traced phase except
// the tracing overhead, which needs the untraced phase too.
func (p *phaseResult) perLayer() map[string]float64 {
	out := map[string]float64{}
	for _, m := range slices.Concat(modules, []string{layerOther, layerBench}) {
		out[m+".cpu_share"] = p.cpu[m]
		out[m+".alloc_share"] = p.alloc[m]
	}
	out["runtime.gc_share"] = p.cpu[layerGC]
	ops := float64(len(p.lat))
	out["runtime.gc_cycles"] = float64(p.gcCycles) / ops
	out["runtime.gc_pause_ms"] = float64(p.gcPause) / float64(time.Millisecond) / ops
	out["mpi.goroutines_peak"] = float64(p.peakGoroutines)
	for name, vs := range p.counters {
		out[name] = median(vs)
	}
	spanMedian := func(metric, span string) { out[metric] = median(p.tr.durations(span)) }
	for _, id := range experimentIDs {
		spanMedian("expt."+id+".ms", "expt."+id)
	}
	for _, kind := range sdkKinds {
		spanMedian("deep.run."+kind+".ms", "deep.run."+kind)
	}
	spanMedian("deep.new_machine_ms", "deep.new_machine")
	spanMedian("machine.booster_fabric_ms", "machine.booster_fabric")
	spanMedian("mpi.world_ms", "deep.run.stencil")
	spanMedian("mpi.partitioned_ms", "deep.run.stencil.k2")
	for _, leg := range []string{"submit", "wait", "fetch", "restart", "drain"} {
		spanMedian("serve."+leg+"_ms", "serve."+leg)
	}
	spanMedian("store.open_ms", "store.open")
	maps.Copy(out, p.requestLatencies())
	return out
}

// sampler polls the live heap (HeapInuse) and the goroutine count
// every 2 ms and keeps their peaks; the heap peak restarts with every
// pass.
type sampler struct {
	done     chan struct{}
	wg       sync.WaitGroup
	heap     atomic.Uint64
	routines atomic.Int64
}

var heapInuseSamples = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func startSampler() *sampler {
	s := &sampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ms := []metrics.Sample{{Name: heapInuseSamples[0]}, {Name: heapInuseSamples[1]}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(ms)
			inuse := ms[0].Value.Uint64() + ms[1].Value.Uint64()
			for old := s.heap.Load(); inuse > old && !s.heap.CompareAndSwap(old, inuse); old = s.heap.Load() {
			}
			if n := int64(runtime.NumGoroutine()); n > s.routines.Load() {
				s.routines.Store(n)
			}
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// takeHeap returns the heap peak since the last call and restarts it;
// 0 without a sampler.
func (s *sampler) takeHeap() uint64 {
	if s == nil {
		return 0
	}
	return s.heap.Swap(0)
}

// stop ends sampling and returns the goroutine peak.
func (s *sampler) stop() (goroutines int) {
	close(s.done)
	s.wg.Wait()
	return int(s.routines.Load())
}
