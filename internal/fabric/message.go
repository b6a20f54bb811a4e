package fabric

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// message is one Send in flight: parked in the network's message table
// from the Send call until its delivery (flow path, loopback) or its
// handoff to the packet model at injection.
type message struct {
	src, dst topology.NodeID
	// size is the payload in bytes; in a free slot it links the free
	// list instead: slot+1 of the next free slot, 0 at the end.
	size int
	done func(at sim.Time, err error)
}

// Message-table chunks hold msgChunk slots each.
const (
	msgChunkShift = 10
	msgChunk      = 1 << msgChunkShift
)

// msgTable is a slot-indexed table of messages. The first chunk grows
// by append, so a network that carries a few messages pays for a few
// entries; every later chunk is allocated whole, so growth never copies
// the entries already stored. Freed slots are reused through a free
// list threaded through the free entries' size fields.
type msgTable struct {
	chunks [][]message
	n      int64 // slots ever handed out
	free   int64 // slot+1 of the first free slot, 0 when none
}

// at returns the entry of slot. The pointer is valid until the next put.
func (t *msgTable) at(slot int64) *message {
	return &t.chunks[slot>>msgChunkShift][slot&(msgChunk-1)]
}

// put stores m and returns its slot.
func (t *msgTable) put(m message) int64 {
	if t.free != 0 {
		slot := t.free - 1
		e := t.at(slot)
		t.free = int64(e.size)
		*e = m
		return slot
	}
	slot := t.n
	c := int(slot >> msgChunkShift)
	if c == len(t.chunks) {
		var chunk []message
		if c > 0 {
			chunk = make([]message, 0, msgChunk)
		}
		t.chunks = append(t.chunks, chunk)
	}
	t.chunks[c] = append(t.chunks[c], m)
	t.n++
	return slot
}

// take returns the message in slot and frees the slot.
func (t *msgTable) take(slot int64) message {
	e := t.at(slot)
	m := *e
	*e = message{size: int(t.free)}
	t.free = slot + 1
	return m
}

// The phases of a message's typed events, passed as the event's second
// argument; the first is the message's slot.
const (
	evInject  = iota // send overhead paid: choose the transfer model
	evDeliver        // flow completion or loopback delivery
)

// msgEvents dispatches a message's typed events without a closure per
// message.
type msgEvents Network

// OnEvent implements sim.Handler.
func (h *msgEvents) OnEvent(now sim.Time, slot, phase int64) {
	n := (*Network)(h)
	if phase == evInject {
		n.inject(slot)
		return
	}
	m := n.msgs.take(slot)
	n.Stats.BytesDelivered += uint64(m.size)
	m.done(now, nil)
}
