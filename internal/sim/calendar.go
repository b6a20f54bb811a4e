package sim

// This file implements the calendar-queue event scheduler that backs
// Engine: a ring of buckets, each covering one "day" of virtual time,
// cycled through year after year. Each bucket keeps its events sorted
// by (time, sequence) with a tail pointer, so the common scheduling
// patterns — monotone bursts (a message fan-out at one instant) and
// near-future singletons — insert in O(1), and dequeue is a head
// check. The structure replaces the former container/heap queue,
// whose O(log n) sift plus per-event interface boxing dominated
// large-machine runs.
//
// Determinism contract: popMin always returns the globally least
// event under (time, sequence) order, so execution order is identical
// to the heap implementation regardless of bucket geometry.

const (
	minBuckets = 64
	maxBuckets = 1 << 18
	// initialWidth is the day width before the first resize has seen
	// real event spacing; fabric events are nanoseconds apart.
	initialWidth = 100 * Nanosecond
)

// bucket is one sorted day list.
type bucket struct {
	head, tail *Event
}

// calendar is the bucketed priority queue. The zero value is ready to
// use after init().
type calendar struct {
	buckets []bucket
	mask    int
	width   Time
	// count is the number of live (scheduled, uncancelled) events;
	// nodes additionally counts cancelled events not yet unlinked.
	count int
	nodes int
	// cur/day track the bucket whose day contains the scheduler's
	// current position; no live event is earlier than day.
	cur int
	day Time
	// maxDepth records the high-water mark of count.
	maxDepth int
	resizes  uint64
	// free is the engine's event free list, threaded through
	// Event.next. It is per-engine, so events never migrate across
	// engines (the Token safety contract relies on that), and it is
	// plain memory rather than a sync.Pool, so reuse — and the
	// Allocs/Reused counters — are the same on every run.
	free *Event
}

// recycle clears an unlinked event and pushes it on the free list.
func (c *calendar) recycle(ev *Event) {
	ev.fn = nil
	ev.h = nil
	ev.queued = false
	ev.cancelled = false
	ev.next = c.free
	c.free = ev
}

func (c *calendar) init() {
	if c.buckets == nil {
		c.buckets = make([]bucket, minBuckets)
		c.mask = minBuckets - 1
		c.width = initialWidth
	}
}

// bucketOf maps an event time to its bucket index.
func (c *calendar) bucketOf(t Time) int {
	return int(uint64(t/c.width) & uint64(c.mask))
}

// less orders events by (time, sequence).
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// insert links ev into its bucket, keeping the bucket sorted. now is
// the engine clock, used only when a resize re-anchors the calendar.
func (c *calendar) insert(ev *Event, now Time) {
	c.init()
	c.link(ev)
	c.count++
	c.nodes++
	if c.count > c.maxDepth {
		c.maxDepth = c.count
	}
	if c.count > 2*len(c.buckets) && len(c.buckets) < maxBuckets {
		c.resize(2*len(c.buckets), now)
	}
}

// link places ev into sorted position within its bucket. Monotone
// arrivals append at the tail in O(1); out-of-order arrivals walk.
func (c *calendar) link(ev *Event) {
	b := &c.buckets[c.bucketOf(ev.at)]
	switch {
	case b.head == nil:
		b.head, b.tail = ev, ev
		ev.next = nil
	case !less(ev, b.tail):
		b.tail.next = ev
		b.tail = ev
		ev.next = nil
	case less(ev, b.head):
		ev.next = b.head
		b.head = ev
	default:
		p := b.head
		for p.next != nil && !less(ev, p.next) {
			p = p.next
		}
		ev.next = p.next
		p.next = ev
	}
}

// headOf purges cancelled events from the front of bucket idx and
// returns its least live event (nil for an empty bucket).
func (c *calendar) headOf(idx int) *Event {
	b := &c.buckets[idx]
	for b.head != nil && b.head.cancelled {
		ev := b.head
		b.head = ev.next
		if b.head == nil {
			b.tail = nil
		}
		ev.next = nil
		ev.queued = false
		c.nodes--
		c.recycle(ev)
	}
	return b.head
}

// unlinkHead removes the head of bucket idx.
func (c *calendar) unlinkHead(idx int) *Event {
	b := &c.buckets[idx]
	ev := b.head
	b.head = ev.next
	if b.head == nil {
		b.tail = nil
	}
	ev.next = nil
	ev.queued = false
	c.nodes--
	c.count--
	return ev
}

// sweep drops cancelled nodes from every bucket. Called when the dead
// fraction grows large, so heavy Cancel use cannot bloat the buckets
// (a cancelled node in the middle of a chain is otherwise unlinked
// only when it surfaces at a bucket head or during a resize).
func (c *calendar) sweep() {
	for idx := range c.buckets {
		b := &c.buckets[idx]
		var prev *Event
		ev := b.head
		for ev != nil {
			next := ev.next
			if ev.cancelled {
				if prev == nil {
					b.head = next
				} else {
					prev.next = next
				}
				ev.next = nil
				ev.queued = false
				c.nodes--
				c.recycle(ev)
			} else {
				prev = ev
			}
			ev = next
		}
		b.tail = prev
	}
}

// popMin removes and returns the least event with at <= deadline, or
// nil when none exists. With remove=false it only peeks.
func (c *calendar) popMin(deadline Time, remove bool) *Event {
	if c.count == 0 {
		return nil
	}
	if remove && c.count < len(c.buckets)/4 && len(c.buckets) > minBuckets {
		c.resize(len(c.buckets)/2, c.day)
	}
	if ev, conclusive := c.dayWalk(deadline, remove); conclusive {
		return ev
	}
	// A whole year passed without a hit: the population is spread far
	// wider than the current day width covers (a handful of events
	// milliseconds apart under a nanosecond-era width). Re-fit the
	// width to the live spread — afterwards one year spans the whole
	// population — and walk again.
	c.resize(len(c.buckets), c.day)
	if ev, conclusive := c.dayWalk(deadline, remove); conclusive {
		return ev
	}
	// Safety net (unreachable for sane geometries): direct search over
	// the bucket heads, jumping the calendar to the winner.
	bestIdx := -1
	var best *Event
	for idx := range c.buckets {
		if ev := c.headOf(idx); ev != nil && (best == nil || less(ev, best)) {
			best, bestIdx = ev, idx
		}
	}
	if best == nil || best.at > deadline {
		return nil
	}
	if remove {
		c.day = best.at - best.at%c.width
		c.cur = c.bucketOf(c.day)
		return c.unlinkHead(bestIdx)
	}
	return best
}

// dayWalk advances day by day for up to one year looking for the next
// event. The boolean reports whether the walk was conclusive: an
// event found, or the deadline proven unreachable. A false return
// means the year was exhausted and the caller should re-fit the
// calendar geometry.
func (c *calendar) dayWalk(deadline Time, remove bool) (*Event, bool) {
	cur, day := c.cur, c.day
	for i := 0; i <= c.mask; i++ {
		if day > deadline {
			return nil, true
		}
		if ev := c.headOf(cur); ev != nil && ev.at < day+c.width {
			if ev.at > deadline {
				return nil, true
			}
			// Only a removal may advance the cursor. A peek happens in
			// the middle of event execution: the running event can
			// still schedule work between now and the peeked minimum,
			// and a cursor moved past those insertions would skip them.
			if remove {
				c.cur, c.day = cur, day
				return c.unlinkHead(cur), true
			}
			return ev, true
		}
		cur = (cur + 1) & c.mask
		day += c.width
	}
	return nil, false
}

// resize rebuilds the calendar with n buckets and a day width fitted
// to the observed event spread, re-anchored at now.
func (c *calendar) resize(n int, now Time) {
	var all *Event
	var lo, hi Time
	first := true
	for idx := range c.buckets {
		ev := c.buckets[idx].head
		for ev != nil {
			next := ev.next
			if ev.cancelled {
				ev.next = nil
				ev.queued = false
				c.nodes--
				c.recycle(ev)
			} else {
				if first || ev.at < lo {
					lo = ev.at
				}
				if first || ev.at > hi {
					hi = ev.at
				}
				first = false
				ev.next = all
				all = ev
			}
			ev = next
		}
	}
	// Aim for ~one live event per day across the observed span; the
	// factor of 2 keeps slack for skewed distributions. Widths both
	// far above and far below the initial guess matter: resilience
	// horizons are seconds apart, packet bursts picoseconds.
	width := initialWidth
	if c.count > 1 && hi > lo {
		width = 2 * (hi - lo) / Time(c.count)
		if width < 1 {
			width = 1
		}
	}
	// Every event is off the ring now. Reuse the array's capacity, so
	// a queue that repeatedly grows and drains (one burst per phase)
	// stops allocating once it has reached its high-water size. Slots
	// past n keep stale links; they are cleared when a later resize
	// exposes them again.
	if n <= cap(c.buckets) {
		c.buckets = c.buckets[:n]
		clear(c.buckets)
	} else {
		c.buckets = make([]bucket, n)
	}
	c.mask = n - 1
	c.width = width
	c.resizes++
	c.day = now - now%width
	c.cur = c.bucketOf(c.day)
	for all != nil {
		next := all.next
		c.link(all)
		all = next
	}
}
