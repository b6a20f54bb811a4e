package fabric

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Stats aggregates fabric-wide transfer counters.
type Stats struct {
	Messages       uint64
	BytesDelivered uint64
	Packets        uint64
	Retransmits    uint64
	Drops          uint64
	// LinkOutageHits counts packet traversals that found their link
	// down (each burns a retransmission attempt).
	LinkOutageHits uint64
	// FlowMessages counts messages that took the flow-level fast path
	// instead of the per-packet event chain (see Fidelity).
	FlowMessages uint64
	// CrossMessages counts messages whose route crossed a spatial
	// partition boundary and were handed to another domain's engine
	// (always zero on an unpartitioned network).
	CrossMessages uint64
}

// Network simulates one fabric: a topology whose links are serializing
// resources with propagation delay, per-hop router delay, error
// injection and link-level retransmission.
type Network struct {
	Eng  *sim.Engine
	Topo topology.Topology
	P    Params

	links []*sim.Resource
	down  []bool // per-link outage flag, driven by resil.Injector
	src   *rng.Source
	Stats Stats

	// Partitioned mode (see parallel.go): when part is non-nil this
	// Network is one spatial shard of a Domains fabric — it owns the
	// contiguous link range [linkBase, linkBase+len(links)) and runs on
	// domain's engine. The per-link slices are indexed by li(l), which
	// is the identity on an unpartitioned network (linkBase == 0), so
	// the sequential path is byte-for-byte unchanged.
	part     *Domains
	domain   int
	linkBase int

	// Owner-mapped shards (topologies whose link IDs are not node-major,
	// e.g. fat trees): slot[l] is the dense index of global link l in
	// the per-link slices, -1 when another shard owns it, and owned
	// lists this shard's global link IDs in slot order. Both are nil on
	// unpartitioned networks and on contiguous node-major shards.
	slot  []int32
	owned []topology.LinkID

	// msgs holds each message from its Send until its delivery or its
	// handoff to the packet model; the slot is the argument of the
	// message's typed events. route is the scratch buffer Send and
	// injection route into.
	msgs  msgTable
	route []topology.LinkID

	// Flow fast-path state (see flow.go): the configured fidelity,
	// the per-link reservation ledger and a scratch buffer for planned
	// hop start times.
	fidelity   Fidelity
	flowFree   []sim.Time
	flowBusy   []sim.Time
	flowStarts []sim.Time

	// energy is the electrical model; transferJ accumulates per-byte
	// link-traversal energy as delivery events fire. Both the packet
	// path (per segment per hop, retransmissions included) and the
	// flow path (size x hops at commit) charge it, and the two agree
	// exactly on fault-free routes — which is all the flow path ever
	// takes — so energy totals are fidelity-invariant.
	energy    EnergyModel
	transferJ float64

	// Obs, when non-nil, receives the fabric timeline as trace events:
	// one message span per Send on the sender's node lane, flow-commit
	// instants when the fast path fires, and link outage instants.
	// Nil — the default — is inert.
	Obs *obs.Scope
}

// SetEnergyModel attaches an electrical model to the fabric. Call
// before injecting traffic.
func (n *Network) SetEnergyModel(e EnergyModel) { n.energy = e }

// EnergyModelOf returns the configured electrical model.
func (n *Network) EnergyModelOf() EnergyModel { return n.energy }

// EnergyJoules returns the fabric's accumulated energy: transfer
// energy charged as deliveries fired plus the static draw of every
// owned link up to the current virtual time. Zero when no model is
// set. On an unpartitioned network the owned links are all of them;
// a partitioned fabric's total comes from Domains.EnergyJoules, which
// charges the idle term over the machine-wide clock instead of the
// shard clocks.
func (n *Network) EnergyJoules() float64 {
	return n.transferJ + n.energy.IdleJ(len(n.down), n.Eng.Now())
}

// NewNetwork builds a network over topo with parameters p. The seed
// drives error injection only; a zero error rate network is fully
// deterministic regardless of seed.
func NewNetwork(eng *sim.Engine, topo topology.Topology, p Params, seed uint64) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := &Network{Eng: eng, Topo: topo, P: p, src: rng.New(seed)}
	n.links = make([]*sim.Resource, topo.Links())
	n.down = make([]bool, topo.Links())
	return n, nil
}

// li maps a global link ID into this network's per-link slices: the
// identity normally, the owned-range offset on a contiguous
// partitioned shard, the dense slot lookup on an owner-mapped shard.
func (n *Network) li(l topology.LinkID) int {
	if n.slot != nil {
		return int(n.slot[l])
	}
	return int(l) - n.linkBase
}

// gl maps a per-shard link index back to its global link ID — the
// inverse of li over this shard's owned links.
func (n *Network) gl(i int) topology.LinkID {
	if n.owned != nil {
		return n.owned[i]
	}
	return topology.LinkID(i + n.linkBase)
}

// link returns the serialization resource of link l, created on first
// use: a 100k-node torus has 600k links, and eagerly materialising a
// named resource per link dominated network construction. Flow-path
// traffic never touches them at all.
func (n *Network) link(l topology.LinkID) *sim.Resource {
	r := n.links[n.li(l)]
	if r == nil {
		r = sim.NewResource(n.Eng, "")
		n.links[n.li(l)] = r
	}
	return r
}

// linkName renders a diagnostic name for link l on demand.
func (n *Network) linkName(l topology.LinkID) string {
	return fmt.Sprintf("%s/link%d", n.Topo.Name(), l)
}

// MustNetwork is NewNetwork that panics on invalid parameters; for
// experiment setup code where the parameters are compile-time presets.
func MustNetwork(eng *sim.Engine, topo topology.Topology, p Params, seed uint64) *Network {
	n, err := NewNetwork(eng, topo, p, seed)
	if err != nil {
		panic(err)
	}
	return n
}

// linkBusyTime returns the accumulated busy time of link l across
// both occupancy ledgers: packet-model grants and flow reservations.
func (n *Network) linkBusyTime(l topology.LinkID) sim.Time {
	var t sim.Time
	if r := n.links[n.li(l)]; r != nil {
		t += r.BusyTime
	}
	if n.flowBusy != nil {
		t += n.flowBusy[n.li(l)]
	}
	return t
}

// LinkUtilisation returns the busy fraction of link l.
func (n *Network) LinkUtilisation(l topology.LinkID) float64 {
	if n.Eng.Now() == 0 {
		return 0
	}
	return float64(n.linkBusyTime(l)) / float64(n.Eng.Now())
}

// MaxLinkUtilisation returns the highest utilisation over all links,
// the fabric's hot-spot measure.
func (n *Network) MaxLinkUtilisation() float64 {
	max := 0.0
	for l := range n.links {
		if u := n.LinkUtilisation(n.gl(l)); u > max {
			max = u
		}
	}
	return max
}

// Send delivers size bytes from src to dst and invokes done at the
// virtual time the last byte has been received (after RecvOverhead).
// done receives the delivery time and an error that is non-nil only if
// the message exceeded the retransmission budget.
//
// The message is segmented into up to MaxPackets pipelined segments;
// each segment traverses the route store-and-forward, contending for
// every link's serialization resource. This captures both the
// pipelining of large transfers and link contention between concurrent
// messages.
//
// Send parks the message in the network's message table and schedules
// a typed injection event for it, so on the flow path a message costs
// no allocation beyond what the caller's done closure costs.
func (n *Network) Send(src, dst topology.NodeID, size int, done func(at sim.Time, err error)) {
	if size < 0 {
		panic("fabric: negative message size")
	}
	// Routing waits for injection; reject bad endpoints here, where
	// the caller passed them.
	topology.CheckNode(n.Topo, src)
	topology.CheckNode(n.Topo, dst)
	n.Stats.Messages++
	if n.Obs.Enabled() {
		done = n.obsWrap(src, dst, size, done)
	}
	if src == dst {
		// Loopback: only the software overheads apply.
		slot := n.msgs.put(message{size: size, done: done})
		n.Eng.ScheduleAfter(n.P.SendOverhead+n.P.RecvOverhead, (*msgEvents)(n), slot, evDeliver)
		return
	}
	segs := n.segment(size)
	n.Stats.Packets += uint64(segs.packets)
	if n.part != nil {
		n.route = n.Topo.AppendRoute(n.route[:0], src, dst)
		if !n.routeLocal(n.route) {
			n.crossSend(dst, len(n.route), segs, size, done)
			return
		}
	}
	slot := n.msgs.put(message{src: src, dst: dst, size: size, done: done})
	n.Eng.ScheduleAfter(n.P.SendOverhead, (*msgEvents)(n), slot, evInject)
}

// inject runs when a message's send overhead has elapsed. The fidelity
// decision happens here, when the route and event-queue state that the
// Auto proof needs are current. Fault-affected routes are rejected
// before any planning work. A flow keeps its slot until its completion
// event; a packet-model message leaves the table here.
func (n *Network) inject(slot int64) {
	m := *n.msgs.at(slot)
	route := n.Topo.AppendRoute(n.route[:0], m.src, m.dst)
	n.route = route
	segs := n.segment(m.size)
	if (n.fidelity == FidelityFlow || n.fidelity == FidelityAuto) && n.routeFaultFree(route) {
		starts, total, delivery := n.flowPlan(route, segs)
		if n.fidelity == FidelityFlow || n.autoQuiescent(route, delivery) {
			if n.Obs.Enabled() {
				n.Obs.Instant(obs.LaneNodes+int(m.src), "fabric", "flow-commit",
					n.Eng.Now(), obs.KV{K: "dst", V: int(m.dst)}, obs.KV{K: "bytes", V: m.size})
			}
			n.commitFlow(route, slot, m.size, starts, total, delivery)
			return
		}
	}
	n.msgs.take(slot)
	// The packet chain's closures outlive the scratch buffer.
	n.packetSend(slices.Clone(route), segs, m.size, m.done)
}

// obsWrap interposes on a Send completion callback to emit the
// message's trace span: from the Send call to delivery (or drop) on
// the sender's node lane.
func (n *Network) obsWrap(src, dst topology.NodeID, size int,
	done func(at sim.Time, err error)) func(at sim.Time, err error) {
	t0 := n.Eng.Now()
	return func(at sim.Time, err error) {
		name := "msg"
		if err != nil {
			name = "msg-drop"
		}
		n.Obs.Span(obs.LaneNodes+int(src), "fabric", name, t0, at,
			obs.KV{K: "dst", V: int(dst)}, obs.KV{K: "bytes", V: size})
		done(at, err)
	}
}

// packetSend injects one message into the exact per-packet model:
// every segment contends for every link of the route.
func (n *Network) packetSend(route []topology.LinkID, segs segments, size int,
	done func(at sim.Time, err error)) {
	remaining := segs.packets
	failed := false
	finish := func(err error) {
		if err != nil && !failed {
			failed = true
			n.Stats.Drops++
			done(n.Eng.Now(), err)
		}
		remaining--
		if remaining == 0 && !failed {
			n.Eng.After(n.P.RecvOverhead, func() {
				n.Stats.BytesDelivered += uint64(size)
				done(n.Eng.Now(), nil)
			})
		}
	}
	for i := 0; i < segs.packets; i++ {
		n.forward(route, 0, segs.size(i), finish)
	}
}

// segments is how a message is split: packets pipelined segments, the
// first rem of them base+1 bytes long and the rest base bytes.
type segments struct{ packets, base, rem int }

// segment splits size bytes into at most maxPackets segments of at
// least MTU bytes each (except possibly the last).
func (n *Network) segment(size int) segments {
	if size == 0 {
		return segments{packets: 1}
	}
	packets := min((size+n.P.MTU-1)/n.P.MTU, n.P.maxPackets())
	return segments{packets: packets, base: size / packets, rem: size % packets}
}

// size returns the length of segment i.
func (s segments) size(i int) int {
	if i < s.rem {
		return s.base + 1
	}
	return s.base
}

// serTotal returns the summed serialization time of every segment.
func (n *Network) serTotal(s segments) sim.Time {
	return sim.Time(s.rem)*n.P.serTime(s.base+1) + sim.Time(s.packets-s.rem)*n.P.serTime(s.base)
}

// forward moves one segment across route[hop:]. Each hop serializes on
// the link resource, then pays router and propagation delay; a
// corrupted traversal is detected by CRC at the far end and
// retransmitted by the link after RetransmitDelay.
func (n *Network) forward(route []topology.LinkID, hop, bytes int, finish func(error)) {
	if hop >= len(route) {
		finish(nil)
		return
	}
	n.traverse(route[hop], bytes, 0, func(err error) {
		if err != nil {
			finish(err)
			return
		}
		n.forward(route, hop+1, bytes, finish)
	})
}

func (n *Network) traverse(l topology.LinkID, bytes, attempt int, done func(error)) {
	link := n.link(l)
	link.Acquire(n.P.serTime(bytes), func(_, _ sim.Time) {
		n.Eng.After(n.P.RouterDelay+n.P.LinkLatency, func() {
			if n.energy.PerByteJ != 0 {
				// The bytes crossed the link whether or not the CRC
				// rejects them at the far end: retransmissions burn
				// energy, which is exactly what E10's inflation shows.
				n.transferJ += n.energy.PerByteJ * float64(bytes)
			}
			corrupted := n.P.PacketErrorRate > 0 && n.src.Bool(n.P.PacketErrorRate)
			if n.down[n.li(l)] {
				// A failed link delivers nothing: the CRC handshake
				// times out and the link layer retries, exactly like a
				// corrupted traversal, until the outage ends or the
				// retry budget is exhausted.
				n.Stats.LinkOutageHits++
				corrupted = true
			}
			if corrupted {
				n.Stats.Retransmits++
				if attempt+1 >= n.P.maxRetries() {
					done(fmt.Errorf("fabric: packet dropped after %d retries on %s",
						attempt+1, n.linkName(l)))
					return
				}
				delay := n.P.RetransmitDelay
				if n.down[n.li(l)] {
					// Outages last far longer than a CRC turnaround:
					// back off exponentially so a packet parked on a
					// failed link costs O(log outage) events instead
					// of busy-spinning at the retransmit cadence.
					shift := uint(attempt)
					if shift > 20 {
						shift = 20
					}
					delay <<= shift
				}
				n.Eng.After(delay, func() {
					n.traverse(l, bytes, attempt+1, done)
				})
				return
			}
			done(nil)
		})
	})
}

// LinkFailed implements resil.LinkTarget: the link stops delivering
// packets until LinkRepaired. Traffic crossing it burns retransmission
// attempts and is eventually dropped if the outage outlasts the retry
// budget.
func (n *Network) LinkFailed(l int) {
	if n.part != nil {
		panic("fabric: link outages are not supported under the partitioned kernel")
	}
	n.down[l] = true
	if n.Obs.Enabled() {
		n.Obs.Instant(obs.LaneLinks+l, "fault", "link-down", n.Eng.Now(), obs.KV{K: "link", V: l})
	}
}

// LinkRepaired implements resil.LinkTarget.
func (n *Network) LinkRepaired(l int) {
	if n.part != nil {
		panic("fabric: link outages are not supported under the partitioned kernel")
	}
	n.down[l] = false
	if n.Obs.Enabled() {
		n.Obs.Instant(obs.LaneLinks+l, "fault", "link-up", n.Eng.Now(), obs.KV{K: "link", V: l})
	}
}

// LinkDown reports whether link l is currently failed.
func (n *Network) LinkDown(l topology.LinkID) bool { return n.down[n.li(l)] }

// ObsLinkUtil emits one link-util instant per link with non-zero
// occupancy at the current time — the per-link hotspot markers
// cmd/deeptrace aggregates. Call after the run completes; a nil or
// disabled scope makes it a no-op.
func (n *Network) ObsLinkUtil() {
	if !n.Obs.Enabled() {
		return
	}
	now := n.Eng.Now()
	for i := range n.links {
		l := int(n.gl(i))
		if u := n.LinkUtilisation(topology.LinkID(l)); u > 0 {
			n.Obs.Instant(obs.LaneLinks+l, "fabric", "link-util", now,
				obs.KV{K: "link", V: l}, obs.KV{K: "utilisation", V: u})
		}
	}
}

// ZeroLoadLatency returns the modelled latency of a size-byte message
// between src and dst on an idle network: overheads + per-hop router
// and propagation delays + pipelined serialization. It matches what
// Send reports when nothing else contends.
func (n *Network) ZeroLoadLatency(src, dst topology.NodeID, size int) sim.Time {
	return n.zeroLoad(topology.Hops(n.Topo, src, dst), n.segment(size))
}

// zeroLoad is ZeroLoadLatency for a hops-long route. Pipelined
// store-and-forward: the first segment pays every hop; the remaining
// segments stream behind on the bottleneck (uniform links, so any
// hop).
func (n *Network) zeroLoad(hops int, segs segments) sim.Time {
	t := n.P.SendOverhead + n.P.RecvOverhead
	if hops == 0 {
		return t
	}
	first := n.P.serTime(segs.size(0))
	return t + sim.Time(hops)*(n.P.RouterDelay+n.P.LinkLatency+first) + n.serTotal(segs) - first
}
