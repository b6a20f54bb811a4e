// Package sim implements the discrete-event simulation kernel that
// underlies the DEEP hardware models (fabrics, NICs, nodes).
//
// The kernel is a calendar-queue simulator: callbacks are scheduled at
// absolute virtual times and executed in nondecreasing time order.
// Ties are broken by schedule order (a monotonically increasing
// sequence number), which makes every run fully deterministic. Events
// are pooled through a free list, and hot models can schedule typed
// Handler events instead of closures, so the steady-state event loop
// allocates nothing.
//
// Virtual time is kept as integer picoseconds so that latencies in the
// nanosecond range and bandwidths in the GB/s range can be combined
// without floating-point drift.
package sim

import (
	"fmt"
	"math"
)

// Time is a virtual time stamp in picoseconds since simulation start.
type Time int64

// Common durations, as multiples of the picosecond base unit.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Nanos returns t expressed in nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// String renders t with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanos())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// FromSeconds converts a float64 second count into a Time, rounding to
// the nearest picosecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// Handler is the typed event callback: hot models implement it once
// and carry per-event context in the two integer arguments, avoiding a
// heap-allocated closure per event.
type Handler interface {
	// OnEvent runs at virtual time now with the arguments the event
	// was scheduled with.
	OnEvent(now Time, a0, a1 int64)
}

// Event is one scheduled occurrence. Events are owned by the engine's
// free list; models hold only Tokens.
type Event struct {
	at  Time
	seq uint64
	// Exactly one of fn (closure form) and h (typed form) is set.
	fn     func()
	h      Handler
	a0, a1 int64

	next      *Event // bucket chain, or free-list link once recycled
	queued    bool
	cancelled bool
}

// Token identifies a scheduled event for cancellation. The zero Token
// is inert. Tokens remain safe to Cancel after the event has fired:
// the sequence number check makes stale cancellations no-ops. (This
// is also why the event free list is per-engine: a recycled Event can
// only be re-issued by the same engine with a strictly larger
// sequence number, so a stale Token can never alias a live event.)
type Token struct {
	ev  *Event
	seq uint64
}

// Stats is a snapshot of the scheduler's counters.
type Stats struct {
	// Executed counts dispatched events; Scheduled counts every
	// schedule call; Cancelled counts successful Cancel calls.
	Executed  uint64
	Scheduled uint64
	Cancelled uint64
	// MaxQueueDepth is the high-water mark of pending events.
	MaxQueueDepth int
	// Allocs counts events that came from the allocator, Reused those
	// recycled through the free list: Reused/(Allocs+Reused) is the
	// pool hit rate.
	Allocs uint64
	Reused uint64
	// Buckets and BucketWidth describe the current calendar geometry;
	// Resizes counts geometry adaptations.
	Buckets     int
	BucketWidth Time
	Resizes     uint64
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
// Engine is not safe for concurrent use: models interact with it only
// from inside event callbacks (or before Run).
type Engine struct {
	now     Time
	seq     uint64
	cal     calendar
	stopped bool

	executed  uint64
	cancelled uint64
	allocs    uint64
	reused    uint64

	// probe, when set, observes the clock advancing: it runs before
	// each event dispatches, with the new current time. It must not
	// schedule or cancel events — it exists so the observability layer
	// can sample state without ever entering the event queue (a real
	// tick event would perturb NextEventTime and the makespan).
	probe func(now Time)
}

// New returns an empty Engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events processed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of scheduled-but-unexecuted events.
func (e *Engine) Pending() int { return e.cal.count }

// Stats returns the scheduler's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Executed:      e.executed,
		Scheduled:     e.seq,
		Cancelled:     e.cancelled,
		MaxQueueDepth: e.cal.maxDepth,
		Allocs:        e.allocs,
		Reused:        e.reused,
		Buckets:       len(e.cal.buckets),
		BucketWidth:   e.cal.width,
		Resizes:       e.cal.resizes,
	}
}

// schedule pulls an event from the free list and inserts it.
func (e *Engine) schedule(t Time, fn func(), h Handler, a0, a1 int64) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.cal.free
	if ev != nil {
		e.cal.free = ev.next
		ev.next = nil
		e.reused++
	} else {
		ev = new(Event)
		e.allocs++
	}
	e.seq++
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.h = h
	ev.a0, ev.a1 = a0, a1
	ev.queued = true
	ev.cancelled = false
	e.cal.insert(ev, e.now)
	return ev
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a model bug, and silently reordering
// events would destroy causality.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, fn, nil, 0, 0)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Schedule is the typed, allocation-free form of At: h.OnEvent(t, a0,
// a1) runs at absolute time t. The returned Token cancels it.
func (e *Engine) Schedule(t Time, h Handler, a0, a1 int64) Token {
	ev := e.schedule(t, nil, h, a0, a1)
	return Token{ev: ev, seq: ev.seq}
}

// ScheduleAfter is Schedule relative to the current time.
func (e *Engine) ScheduleAfter(d Time, h Handler, a0, a1 int64) Token {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, h, a0, a1)
}

// Cancel revokes a scheduled event. It reports whether the event was
// still pending; cancelling an already-fired or already-cancelled
// event is a safe no-op.
func (e *Engine) Cancel(tok Token) bool {
	ev := tok.ev
	if ev == nil || !ev.queued || ev.cancelled || ev.seq != tok.seq {
		return false
	}
	ev.cancelled = true
	e.cal.count--
	e.cancelled++
	if e.cal.nodes > 2*e.cal.count+64 {
		e.cal.sweep()
	}
	return true
}

// NextEventTime returns the virtual time of the next pending event.
// The fabric's flow fast path uses it to prove that a transfer cannot
// be disturbed before it completes.
func (e *Engine) NextEventTime() (Time, bool) {
	ev := e.cal.popMin(math.MaxInt64, false)
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Stop makes Run return after the current event completes. Pending
// events stay queued; Run can be called again to continue.
func (e *Engine) Stop() { e.stopped = true }

// SetProbe installs fn as the clock-advance observer (nil removes
// it). The probe fires once per dispatched event, after the clock
// moves to the event's time and before its callback runs. With no
// probe installed the cost is one predictable branch per event.
func (e *Engine) SetProbe(fn func(now Time)) { e.probe = fn }

// dispatch runs one popped event and recycles it.
func (e *Engine) dispatch(ev *Event) {
	fn, h, a0, a1, t := ev.fn, ev.h, ev.a0, ev.a1, ev.at
	e.cal.recycle(ev)
	if fn != nil {
		fn()
	} else if h != nil {
		h.OnEvent(t, a0, a1)
	}
}

// Run executes events until the queue is empty or Stop is called.
// It returns the final virtual time.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped {
		ev := e.cal.popMin(math.MaxInt64, true)
		if ev == nil {
			break
		}
		e.now = ev.at
		if e.probe != nil {
			e.probe(e.now)
		}
		e.executed++
		e.dispatch(ev)
	}
	return e.now
}

// RunUntil executes events with time <= deadline and then returns. The
// clock is advanced to the deadline even if the queue drains early, so
// periodic models can be stepped at a fixed cadence.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped {
		ev := e.cal.popMin(deadline, true)
		if ev == nil {
			break
		}
		e.now = ev.at
		if e.probe != nil {
			e.probe(e.now)
		}
		e.executed++
		e.dispatch(ev)
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunWindow executes events with time <= deadline and returns the
// number executed. Unlike RunUntil it leaves the clock at the last
// executed event rather than advancing it to the deadline, so a
// coordinator can still inject events anywhere inside the remainder of
// the window — the contract the conservative parallel Cluster needs.
func (e *Engine) RunWindow(deadline Time) uint64 {
	e.stopped = false
	var n uint64
	for !e.stopped {
		ev := e.cal.popMin(deadline, true)
		if ev == nil {
			break
		}
		e.now = ev.at
		if e.probe != nil {
			e.probe(e.now)
		}
		e.executed++
		n++
		e.dispatch(ev)
	}
	return n
}
