package main

import (
	"io"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer records host-time spans around the calls the benchmark makes
// into the program's modules. Spans live in memory and are written out
// when the run ends. A nil *tracer is inert: start returns a nil span
// and every span method is a no-op, so the untraced run pays one nil
// check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Times are offsets from the start of
// the traced phase. AllocBytes and Allocs are the process-wide heap
// allocation deltas between the span's start and end.
type spanRec struct {
	ID, Parent, Op, Lane int
	Name                 string
	Start, End           time.Duration
	AllocBytes, Allocs   uint64
}

// span is an open span.
type span struct {
	t   *tracer
	rec spanRec
	b0  uint64
	n0  uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span named after the module call it wraps
// ("expt.E13", "serve.submit", ...). parent may be nil; op groups the
// spans of one benchmark op; lane separates concurrent clients.
func (t *tracer) start(name string, parent *span, op, lane int) *span {
	if t == nil {
		return nil
	}
	s := &span{t: t, rec: spanRec{Name: name, Op: op, Lane: lane}}
	if parent != nil {
		s.rec.Parent = parent.rec.ID
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{}) // reserve the slot: IDs follow start order
	s.rec.ID = len(t.spans)
	t.mu.Unlock()
	s.b0, s.n0 = heapAllocs()
	s.rec.Start = time.Since(t.t0)
	return s
}

// end closes the span and records it.
func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = time.Since(s.t.t0)
	b, n := heapAllocs()
	s.rec.AllocBytes, s.rec.Allocs = b-s.b0, n-s.n0
	s.t.mu.Lock()
	s.t.spans[s.rec.ID-1] = s.rec
	s.t.mu.Unlock()
}

// durations returns the durations in milliseconds of every finished
// span with the given name, in start order.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.ID != 0 {
			out = append(out, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return out
}

// writeChrome encodes the spans as a Chrome trace (one complete event
// per span, lanes as threads) with the program's own trace encoder, so
// cmd/deeptrace and chrome://tracing read them.
func (t *tracer) writeChrome(w io.Writer, process string) error {
	t.mu.Lock()
	events := make([]obs.ChromeEvent, 0, len(t.spans)+1)
	events = append(events, obs.ChromeEvent{Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": process}})
	for _, s := range t.spans {
		if s.ID == 0 {
			continue // still open when the run ended
		}
		events = append(events, obs.ChromeEvent{
			Name: s.Name, Cat: layerOfSpan(s.Name), Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op,
				"alloc_bytes": s.AllocBytes, "allocs": s.Allocs},
		})
	}
	t.mu.Unlock()
	return obs.WriteChrome(w, events)
}

// layerOfSpan is the module prefix of a span name ("expt.E13" -> "expt").
func layerOfSpan(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

var heapSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

// heapAllocs reads the cumulative heap allocation counters without
// stopping the world.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: heapSamples[0]}, {Name: heapSamples[1]}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
