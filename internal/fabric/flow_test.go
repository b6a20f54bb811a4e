package fabric

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// sendWith runs one message under the given fidelity on a fresh
// network and returns its delivery time plus the network for stats.
func sendWith(t *testing.T, fid Fidelity, src, dst topology.NodeID, size int) (sim.Time, *Network) {
	t.Helper()
	topo := topology.NewTorus3D(4, 4, 2)
	eng := sim.New()
	net := MustNetwork(eng, topo, Extoll, 1)
	net.SetFidelity(fid)
	var at sim.Time
	ok := false
	net.Send(src, dst, size, func(a sim.Time, err error) {
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		at, ok = a, true
	})
	eng.Run()
	if !ok {
		t.Fatal("send never completed")
	}
	return at, net
}

// TestFlowMatchesPacketUncontended is the core exactness claim: on an
// idle network the flow fast path must reproduce the packet model's
// delivery time to the picosecond, for any size and hop count.
func TestFlowMatchesPacketUncontended(t *testing.T) {
	for _, dst := range []topology.NodeID{1, 3, 21, 31} {
		for _, size := range []int{0, 1, 64, 2048, 4096, 65536, 1 << 20} {
			pkt, _ := sendWith(t, FidelityPacket, 0, dst, size)
			flw, net := sendWith(t, FidelityFlow, 0, dst, size)
			if flw != pkt {
				t.Errorf("dst %d size %d: flow %v != packet %v", dst, size, flw, pkt)
			}
			if net.Stats.FlowMessages != 1 {
				t.Errorf("dst %d size %d: flow path not taken", dst, size)
			}
		}
	}
}

// TestAutoMatchesPacketQuiescent: a quiescent single transfer must be
// committed as a flow by Auto and still land at the exact packet time.
func TestAutoMatchesPacketQuiescent(t *testing.T) {
	pkt, netP := sendWith(t, FidelityPacket, 0, 21, 1<<20)
	aut, netA := sendWith(t, FidelityAuto, 0, 21, 1<<20)
	if aut != pkt {
		t.Fatalf("auto %v != packet %v", aut, pkt)
	}
	if netA.Stats.FlowMessages != 1 {
		t.Fatal("auto did not take the flow path on a quiescent network")
	}
	// Stats the experiments print must agree too.
	if netA.Stats.Packets != netP.Stats.Packets ||
		netA.Stats.BytesDelivered != netP.Stats.BytesDelivered {
		t.Fatalf("stats diverged: auto %+v packet %+v", netA.Stats, netP.Stats)
	}
	for l := 0; l < netP.Topo.Links(); l++ {
		id := topology.LinkID(l)
		if netA.LinkUtilisation(id) != netP.LinkUtilisation(id) {
			t.Fatalf("link %d utilisation diverged", l)
		}
	}
}

// TestAutoFallsBackUnderContention: concurrent transfers sharing the
// engine must all take the packet path and therefore produce times
// identical to pure packet fidelity.
func TestAutoFallsBackUnderContention(t *testing.T) {
	run := func(fid Fidelity) ([]sim.Time, *Network) {
		topo := topology.NewTorus3D(4, 1, 1)
		eng := sim.New()
		net := MustNetwork(eng, topo, Extoll, 1)
		net.SetFidelity(fid)
		var times []sim.Time
		for i := 0; i < 4; i++ {
			net.Send(0, 2, 1<<20, func(at sim.Time, err error) { times = append(times, at) })
		}
		eng.Run()
		return times, net
	}
	pkt, _ := run(FidelityPacket)
	aut, netA := run(FidelityAuto)
	if netA.Stats.FlowMessages != 0 {
		t.Fatalf("auto committed %d flows under contention", netA.Stats.FlowMessages)
	}
	for i := range pkt {
		if aut[i] != pkt[i] {
			t.Fatalf("message %d: auto %v != packet %v", i, aut[i], pkt[i])
		}
	}
}

// TestAutoChainedTransfersCommit: a request/response chain (each send
// injected from the previous completion, nothing else pending) is the
// pattern Auto exists for — every message should go flow-level.
func TestAutoChainedTransfersCommit(t *testing.T) {
	run := func(fid Fidelity) (sim.Time, *Network) {
		topo := topology.NewTorus3D(4, 4, 1)
		eng := sim.New()
		net := MustNetwork(eng, topo, Extoll, 1)
		net.SetFidelity(fid)
		var last sim.Time
		hops := []topology.NodeID{5, 9, 2, 0}
		var next func(i int, from topology.NodeID)
		next = func(i int, from topology.NodeID) {
			if i == len(hops) {
				return
			}
			net.Send(from, hops[i], 64<<10, func(at sim.Time, err error) {
				last = at
				next(i+1, hops[i])
			})
		}
		next(0, 0)
		eng.Run()
		return last, net
	}
	pkt, _ := run(FidelityPacket)
	aut, netA := run(FidelityAuto)
	if aut != pkt {
		t.Fatalf("auto %v != packet %v", aut, pkt)
	}
	if got := netA.Stats.FlowMessages; got != 4 {
		t.Fatalf("auto committed %d of 4 chained transfers", got)
	}
}

// TestFlowContentionSerializes: in pure flow fidelity, messages on a
// shared link serialize at message granularity.
func TestFlowContentionSerializes(t *testing.T) {
	topo := topology.NewTorus3D(4, 1, 1)
	eng := sim.New()
	net := MustNetwork(eng, topo, Extoll, 1)
	net.SetFidelity(FidelityFlow)
	const size = 1 << 20
	var done []sim.Time
	for i := 0; i < 2; i++ {
		net.Send(0, 1, size, func(at sim.Time, err error) { done = append(done, at) })
	}
	eng.Run()
	if len(done) != 2 {
		t.Fatalf("completed %d of 2", len(done))
	}
	solo := net.ZeroLoadLatency(0, 1, size)
	if done[1] < solo+solo/2 {
		t.Fatalf("no flow-level contention: second at %v, solo %v", done[1], solo)
	}
	if net.Stats.FlowMessages != 2 {
		t.Fatalf("flow messages = %d", net.Stats.FlowMessages)
	}
}

// TestFlowFallsBackUnderFaults: link outages and error injection need
// per-packet retry dynamics, so even Flow fidelity reverts to the
// exact packet model for affected routes.
func TestFlowFallsBackUnderFaults(t *testing.T) {
	topo := topology.NewTorus3D(4, 1, 1)
	p := Extoll
	p.MaxRetries = 1 << 20
	eng := sim.New()
	net := MustNetwork(eng, topo, p, 1)
	net.SetFidelity(FidelityFlow)
	route := topo.AppendRoute(nil, 0, 2)
	net.LinkFailed(int(route[0]))
	eng.At(50*sim.Microsecond, func() { net.LinkRepaired(int(route[0])) })
	var at sim.Time
	net.Send(0, 2, 4096, func(a sim.Time, err error) {
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		at = a
	})
	eng.Run()
	if net.Stats.FlowMessages != 0 {
		t.Fatal("fault-affected message took the flow path")
	}
	if net.Stats.LinkOutageHits == 0 || at < 50*sim.Microsecond {
		t.Fatalf("outage not modelled: at=%v hits=%d", at, net.Stats.LinkOutageHits)
	}

	// Error injection likewise forces the packet model.
	pe := Extoll
	pe.PacketErrorRate = 0.2
	pe.MaxRetries = 100
	eng2 := sim.New()
	net2 := MustNetwork(eng2, topo, pe, 7)
	net2.SetFidelity(FidelityFlow)
	net2.Send(0, 2, 1<<20, func(a sim.Time, err error) {})
	eng2.Run()
	if net2.Stats.FlowMessages != 0 {
		t.Fatal("error-injected message took the flow path")
	}
	if net2.Stats.Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
}

// TestFlowEventEconomy quantifies the point of the fast path: the
// flow model must use far fewer events than the packet model for the
// same traffic.
func TestFlowEventEconomy(t *testing.T) {
	run := func(fid Fidelity) uint64 {
		topo := topology.NewTorus3D(8, 8, 8)
		eng := sim.New()
		net := MustNetwork(eng, topo, Extoll, 1)
		net.SetFidelity(fid)
		for i := 0; i < 512; i++ {
			net.Send(topology.NodeID(i), topology.NodeID((i*37+11)%512), 64<<10,
				func(sim.Time, error) {})
		}
		eng.Run()
		return eng.Stats().Executed
	}
	pkt := run(FidelityPacket)
	flw := run(FidelityFlow)
	if flw*5 > pkt {
		t.Fatalf("flow path not economical: %d events vs packet %d", flw, pkt)
	}
}

func BenchmarkFlowVsPacketTransfer(b *testing.B) {
	for _, fid := range []Fidelity{FidelityPacket, FidelityFlow} {
		b.Run(fid.String(), func(b *testing.B) {
			topo := topology.NewTorus3D(8, 8, 8)
			eng := sim.New()
			net := MustNetwork(eng, topo, Extoll, 1)
			net.SetFidelity(fid)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Send(topology.NodeID(i%512), topology.NodeID((i*7+3)%512), 64<<10,
					func(sim.Time, error) {})
				if i%1024 == 1023 {
					eng.Run()
				}
			}
			eng.Run()
		})
	}
}

// TestFlowSendAllocs checks that a flow-fidelity Send allocates
// nothing per message once the network is warm: the message parks in
// the message table, injection and completion are typed events, the
// route goes into a scratch buffer and the events come from the
// engine's free list. Each batch is a six-neighbour halo exchange run
// to quiescence.
func TestFlowSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tor := topology.NewTorus3D(4, 4, 4)
	eng := sim.New()
	net := MustNetwork(eng, tor, Extoll, 1)
	net.SetFidelity(FidelityFlow)
	delivered := 0
	done := func(_ sim.Time, err error) {
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		delivered++
	}
	batch := func() {
		for id := 0; id < tor.Nodes(); id++ {
			src := topology.NodeID(id)
			x, y, z := tor.Coord(src)
			for _, nb := range [...]topology.NodeID{
				tor.ID(x+1, y, z), tor.ID(x-1, y, z),
				tor.ID(x, y+1, z), tor.ID(x, y-1, z),
				tor.ID(x, y, z+1), tor.ID(x, y, z-1),
			} {
				net.Send(src, nb, 2048, done)
			}
		}
		eng.Run()
	}
	batch() // warm the message table, event slabs and calendar
	msgs := 6 * tor.Nodes()
	const runs = 10
	allocs := testing.AllocsPerRun(runs, batch)
	if per := allocs / float64(msgs); per != 0 {
		t.Fatalf("%.0f allocations per batch of %d messages (%.3f per message), want 0", allocs, msgs, per)
	}
	// One warm-up batch here, one inside AllocsPerRun, then the runs.
	if want := (runs + 2) * msgs; delivered != want || net.Stats.FlowMessages != uint64(want) {
		t.Fatalf("delivered %d, flow messages %d, want %d", delivered, net.Stats.FlowMessages, want)
	}
	if net.msgs.n > int64(msgs) {
		t.Fatalf("message table grew to %d slots for %d messages in flight", net.msgs.n, msgs)
	}
}
