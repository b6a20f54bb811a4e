package sim

import (
	"container/heap"
	"math"
	"testing"

	"repro/internal/rng"
)

// oracleEvent mirrors one scheduled event in the reference model.
type oracleEvent struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
}

// oracleHeap is the reference priority queue: the exact container/heap
// implementation the calendar queue replaced.
type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(*oracleEvent)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// TestCalendarMatchesHeapOracle drives the engine with random
// interleaved Schedule/Cancel/pop sequences and asserts that events
// pop in nondecreasing (time, seq) order, exactly matching the heap
// oracle. This is the determinism contract the calendar queue must
// uphold: bucket geometry may never change execution order.
func TestCalendarMatchesHeapOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99, 424242} {
		r := rng.New(seed)
		e := New()
		var oracle oracleHeap
		type held struct {
			tok Token
			id  int
		}
		var tokens []held
		var oracleByID = map[int]*oracleEvent{}
		var got, want []int
		nextID := 0

		handler := handlerFunc(func(_ Time, a0, _ int64) { got = append(got, int(a0)) })

		// Random mixture of operations, executed between engine steps
		// so scheduling happens both before Run and from inside events.
		ops := 4000
		for i := 0; i < ops; i++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // schedule at a random future offset
				// Cluster times deliberately: 30% chance of reusing the
				// exact current horizon to stress same-time ties.
				var at Time
				if r.Intn(10) < 3 {
					at = e.Now()
				} else {
					at = e.Now() + Time(r.Intn(1_000_000))
				}
				id := nextID
				nextID++
				tok := e.Schedule(at, handler, int64(id), 0)
				tokens = append(tokens, held{tok: tok, id: id})
				oe := &oracleEvent{at: at, seq: e.seq, id: id}
				oracleByID[id] = oe
				heap.Push(&oracle, oe)
			case 6, 7: // cancel a random outstanding token
				if len(tokens) == 0 {
					continue
				}
				k := r.Intn(len(tokens))
				hd := tokens[k]
				// The oracle only honours the cancel if the engine did:
				// stale tokens (fired or re-used events) are no-ops.
				if e.Cancel(hd.tok) {
					oracleByID[hd.id].cancelled = true
				}
				tokens = append(tokens[:k], tokens[k+1:]...)
			case 8, 9: // step the engine by a few events
				steps := r.Intn(5) + 1
				for s := 0; s < steps; s++ {
					ev := e.cal.popMin(math.MaxInt64, true)
					if ev == nil {
						break
					}
					e.now = ev.at
					e.executed++
					e.dispatch(ev)
					// Advance the oracle past cancelled entries.
					for oracle.Len() > 0 {
						oe := heap.Pop(&oracle).(*oracleEvent)
						if !oe.cancelled {
							want = append(want, oe.id)
							break
						}
					}
				}
			}
		}
		// Drain both completely.
		e.Run()
		for oracle.Len() > 0 {
			oe := heap.Pop(&oracle).(*oracleEvent)
			if !oe.cancelled {
				want = append(want, oe.id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine ran %d events, oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: divergence at %d: engine %d, oracle %d", seed, i, got[i], want[i])
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("seed %d: %d events left pending", seed, e.Pending())
		}
	}
}

// handlerFunc adapts a function to Handler for tests.
type handlerFunc func(now Time, a0, a1 int64)

func (f handlerFunc) OnEvent(now Time, a0, a1 int64) { f(now, a0, a1) }

// TestPopNondecreasing is the pure invariant check: any interleaving
// of schedules and cancels pops in nondecreasing (time, seq) order.
func TestPopNondecreasing(t *testing.T) {
	r := rng.New(7)
	e := New()
	var lastAt Time
	var lastSeq uint64
	violations := 0
	h := handlerFunc(func(now Time, _, a1 int64) {
		seq := uint64(a1)
		if now < lastAt || (now == lastAt && seq < lastSeq) {
			violations++
		}
		lastAt, lastSeq = now, seq
		// Keep the pot boiling: occasionally schedule more from inside.
		if r.Intn(4) == 0 {
			tok := e.ScheduleAfter(Time(r.Intn(5000)), nil, 0, 0)
			_ = tok
		}
	})
	var tokens []Token
	for i := 0; i < 5000; i++ {
		tok := e.Schedule(Time(r.Intn(1_000_000)), h, 0, 0)
		tokens = append(tokens, Token{ev: tok.ev, seq: tok.seq})
		if len(tokens) > 3 && r.Intn(3) == 0 {
			e.Cancel(tokens[r.Intn(len(tokens))])
		}
	}
	e.Run()
	if violations != 0 {
		t.Fatalf("%d ordering violations", violations)
	}
}

// Fix the nil-handler case: scheduling a nil Handler is legal and the
// event is simply a time marker.
func TestNilHandlerEvent(t *testing.T) {
	e := New()
	e.Schedule(5*Nanosecond, nil, 0, 0)
	if got := e.Run(); got != 5*Nanosecond {
		t.Fatalf("final time %v", got)
	}
}

func TestCancelSemantics(t *testing.T) {
	e := New()
	fired := 0
	h := handlerFunc(func(Time, int64, int64) { fired++ })
	tok := e.Schedule(10*Nanosecond, h, 0, 0)
	if !e.Cancel(tok) {
		t.Fatal("first cancel failed")
	}
	if e.Cancel(tok) {
		t.Fatal("double cancel succeeded")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after cancel", e.Pending())
	}
	e.Run()
	if fired != 0 {
		t.Fatal("cancelled event fired")
	}
	// A token for a fired event must be a no-op even after the
	// underlying Event struct has been recycled and rescheduled.
	tok2 := e.Schedule(20*Nanosecond, h, 0, 0)
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	tok3 := e.Schedule(30*Nanosecond, h, 0, 0)
	if e.Cancel(tok2) {
		t.Fatal("stale token cancelled something")
	}
	if e.Pending() != 1 {
		t.Fatal("stale cancel disturbed the queue")
	}
	e.Cancel(tok3)
}

func TestStatsCounters(t *testing.T) {
	e := New()
	for i := 0; i < 100; i++ {
		e.At(Time(i)*Nanosecond, func() {})
	}
	tok := e.Schedule(200*Nanosecond, nil, 0, 0)
	e.Cancel(tok)
	e.Run()
	st := e.Stats()
	if st.Executed != 100 {
		t.Fatalf("executed = %d", st.Executed)
	}
	if st.Scheduled != 101 {
		t.Fatalf("scheduled = %d", st.Scheduled)
	}
	if st.Cancelled != 1 {
		t.Fatalf("cancelled = %d", st.Cancelled)
	}
	if st.MaxQueueDepth < 100 {
		t.Fatalf("max depth = %d", st.MaxQueueDepth)
	}
	if st.Allocs+st.Reused < 101 {
		t.Fatalf("pool accounting: %+v", st)
	}
	if st.Buckets == 0 || st.BucketWidth == 0 {
		t.Fatalf("calendar geometry unset: %+v", st)
	}
}

// TestFarFutureEvents exercises the year-wrap fallback: events many
// bucket-years ahead must still pop in order.
func TestFarFutureEvents(t *testing.T) {
	e := New()
	var got []Time
	record := func() { got = append(got, e.Now()) }
	e.At(1*Nanosecond, record)
	e.At(10*Second, record)
	e.At(3*Second, record)
	e.At(2*Nanosecond, record)
	e.Run()
	want := []Time{1 * Nanosecond, 2 * Nanosecond, 3 * Second, 10 * Second}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestNextEventTime checks the peek API the fabric fast path uses.
func TestNextEventTime(t *testing.T) {
	e := New()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reported a next event")
	}
	e.At(7*Nanosecond, func() {})
	e.At(3*Nanosecond, func() {})
	at, ok := e.NextEventTime()
	if !ok || at != 3*Nanosecond {
		t.Fatalf("next = %v ok=%v", at, ok)
	}
	if e.Pending() != 2 {
		t.Fatal("peek consumed an event")
	}
	e.Run()
}

func BenchmarkSchedulePop(b *testing.B) {
	// Steady-state churn: a self-rescheduling population of 1024
	// events, the shape of a busy fabric.
	e := New()
	var h handlerFunc
	r := rng.New(1)
	h = func(Time, int64, int64) {
		e.ScheduleAfter(Time(r.Intn(10_000)+1), h, 0, 0)
	}
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(r.Intn(10_000)), h, 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.cal.popMin(math.MaxInt64, true)
		e.now = ev.at
		e.dispatch(ev)
	}
}

func BenchmarkScheduleCancel(b *testing.B) {
	e := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok := e.Schedule(e.Now()+Time(i%1000), nil, 0, 0)
		e.Cancel(tok)
	}
}

// TestPeekDoesNotSkipLaterInserts pins a subtle cursor bug: a peek
// (NextEventTime) while the queue's minimum lies far in the future
// must not advance the calendar cursor — the running event may still
// schedule work between now and that minimum, and a moved cursor
// would walk right past it. The fabric's Auto fast path peeks on
// every send, which is exactly this pattern.
func TestPeekDoesNotSkipLaterInserts(t *testing.T) {
	e := New()
	var order []Time
	e.At(1*Microsecond, func() {
		// A far-future event is pending (scheduled below); peek at it,
		// then schedule something much nearer.
		if at, ok := e.NextEventTime(); !ok || at != 50*Millisecond {
			t.Errorf("peek = %v, %v", at, ok)
		}
		e.After(3*Microsecond, func() { order = append(order, e.Now()) })
	})
	e.At(50*Millisecond, func() { order = append(order, e.Now()) })
	e.Run()
	if len(order) != 2 || order[0] != 4*Microsecond || order[1] != 50*Millisecond {
		t.Fatalf("execution order corrupted by peek: %v", order)
	}
}

// TestPeekInterleavedOracle re-runs the heap-oracle property with a
// NextEventTime peek injected before every pop.
func TestPeekInterleavedOracle(t *testing.T) {
	r := rng.New(2026)
	e := New()
	var got []Time
	var h handlerFunc
	h = func(now Time, depth, _ int64) {
		got = append(got, now)
		if depth < 3 {
			n := r.Intn(3)
			for i := 0; i < n; i++ {
				// Mix near and far horizons so peeks cross years.
				var d Time
				if r.Intn(2) == 0 {
					d = Time(r.Intn(1000))
				} else {
					d = Time(r.Intn(100_000_000))
				}
				e.ScheduleAfter(d, h, depth+1, 0)
			}
		}
		e.NextEventTime()
	}
	for i := 0; i < 500; i++ {
		e.Schedule(Time(r.Intn(1_000_000)), h, 0, 0)
		if i%3 == 0 {
			e.NextEventTime()
		}
	}
	e.Run()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out-of-order execution at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

// TestStatsPinned replays a fixed pattern of closure and typed
// schedules, nested reschedules, cancellations and a second run over a
// warm free list, and pins every scheduler counter. The values were
// recorded when each fresh event was its own heap allocation; carving
// fresh events from slabs must not move any of them, since Allocs and
// Reused feed the printed pool hit rate.
func TestStatsPinned(t *testing.T) {
	e := New()
	var follow handlerFunc
	follow = func(now Time, a0, _ int64) {
		if a0 > 0 {
			e.ScheduleAfter(Time(a0)*Nanosecond, follow, a0-1, 0)
		}
	}
	var toks []Token
	for i := 0; i < 500; i++ {
		i := i
		e.At(Time(i*7%1000)*Nanosecond, func() {
			if i%2 == 0 {
				e.ScheduleAfter(50*Nanosecond, follow, int64(i%4), 0)
			}
		})
		toks = append(toks, e.Schedule(Time(2000+i*3)*Nanosecond, follow, 1, 0))
	}
	for i := 0; i < len(toks); i += 5 {
		e.Cancel(toks[i])
	}
	e.RunUntil(1500 * Nanosecond)
	for i := 1; i < len(toks); i += 7 {
		e.Cancel(toks[i])
	}
	e.Run()
	for i := 0; i < 300; i++ {
		tok := e.ScheduleAfter(Time(i%37)*Microsecond, follow, 2, 0)
		if i%3 == 0 {
			e.Cancel(tok)
		}
	}
	e.Run()
	want := Stats{
		Executed:      2284,
		Scheduled:     2542,
		Cancelled:     258,
		MaxQueueDepth: 1000,
		Allocs:        1000,
		Reused:        1542,
		Buckets:       64,
		BucketWidth:   322387 * Picosecond,
		Resizes:       8,
	}
	if got := e.Stats(); got != want {
		t.Fatalf("stats = %+v\nwant    %+v", got, want)
	}
}

// TestScheduleAllocs checks the kernel's allocation contract: fresh
// events come from slabs, a handful of allocations for thousands of
// events, and a warm engine recycles every event and its calendar, so
// typed schedules then allocate nothing.
func TestScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const events = 10000
	var e *Engine
	h := handlerFunc(func(Time, int64, int64) {})
	burst := func() {
		for i := 0; i < events; i++ {
			e.ScheduleAfter(Time(i%97)*Nanosecond, h, 0, 0)
		}
		e.Run()
	}
	cold := testing.AllocsPerRun(1, func() {
		e = New()
		burst()
	})
	if cold > 50 {
		t.Fatalf("a fresh engine made %.0f allocations for %d events, want slabs (<= 50)", cold, events)
	}
	if warm := testing.AllocsPerRun(10, burst); warm != 0 {
		t.Fatalf("a warm engine made %.0f allocations per %d-event burst, want 0", warm, events)
	}
}
