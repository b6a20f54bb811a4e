package deep

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/cbp"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TorusTraffic drives point-to-point traffic over one of the
// machine's fabrics at the machine's fidelity. It is the SDK's window
// into the simulation kernel itself. Every run goes through one
// fabric.Domains: on a machine built WithDomains(k > 1) the fabric is
// split into k slabs, each simulated by its own domain engine under
// conservative window synchronization, and Result.Kernel reports the
// per-domain scheduler counters (executed events, blocked windows)
// next to the coherent machine-wide aggregate. On the default machine
// the partition has one domain — the exact sequential kernel, which
// accepts every topology and error injection — and Result.Kernel
// carries the aggregate counters only.
//
// Results are deterministic per (seed, domain count): the partitioned
// kernel's output is byte-stable for a fixed k, not across k —
// boundary-crossing messages travel as single zero-load-latency
// events, exact only on uncontended routes.
type TorusTraffic struct {
	// Messages is the number of random point-to-point sends (default
	// 4096).
	Messages int
	// Bytes is the payload per message (default 2048).
	Bytes int
	// WindowMS is the injection window in virtual milliseconds over
	// which random sends are uniformly scattered (default 1.0).
	// Shorter windows mean more contention and more cross-domain
	// traffic in flight per synchronization window.
	WindowMS float64
	// Topology selects the fabric: "torus" (the default) is the
	// booster EXTOLL torus, partitioned into z-plane slabs; "fattree"
	// is the cluster InfiniBand fat tree (16 nodes per leaf, 8
	// spines), partitioned into leaf ranges; "crossbar" is an ideal
	// EXTOLL crossbar over the booster nodes, which cannot be
	// partitioned.
	Topology string
	// Pattern selects the traffic: "random" (the default) scatters
	// Messages sends with uniform endpoints over WindowMS; "neighbor"
	// (torus only) has every node send Bytes to its +X, +Y and +Z
	// neighbours at time zero; "alltoall" has every node send Bytes to
	// every other node at time zero.
	Pattern string
	// ErrorRate is the per-packet, per-link corruption probability in
	// [0, 1); links retransmit corrupted packets up to 64 times. Error
	// injection needs a one-domain machine.
	ErrorRate float64
}

// Name implements Workload.
func (TorusTraffic) Name() string { return "traffic" }

// Run implements Workload.
func (w TorusTraffic) Run(ctx context.Context, env *Env) (*Result, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := env.Machine
	count := positive(w.Messages, 4096)
	size := positive(w.Bytes, 2048)
	windowMS := w.WindowMS
	if windowMS <= 0 {
		windowMS = 1
	}
	window := sim.Time(windowMS * float64(sim.Millisecond))
	fid := fabric.Fidelity(m.fidelity)
	res := &Result{Workload: w.Name()}

	// The fabric: topology, link and energy parameters, and the slabs
	// a partition may cut it into — units blocks of unitNodes
	// consecutive nodes (torus z planes, fat-tree leaves).
	var (
		topo      topology.Topology
		tor       *topology.Torus3D
		params    = fabric.Extoll
		energy    = fabric.ExtollEnergy
		shape     string
		units     = 1
		unitNodes int
	)
	switch w.Topology {
	case "", "torus":
		x, y, z := m.torusX, m.torusY, m.torusZ
		if x == 0 {
			x, y, z = cbp.TorusShape(m.boosterNodes)
		}
		if x*y*z != m.boosterNodes {
			res.Notes = append(res.Notes,
				fmt.Sprintf("booster torus rounded up to %dx%dx%d = %d nodes", x, y, z, x*y*z))
		}
		tor = topology.NewTorus3D(x, y, z)
		topo, shape, units, unitNodes = tor, fmt.Sprintf("torus=%dx%dx%d", x, y, z), z, x*y
	case "fattree":
		leaves := (m.clusterNodes + 15) / 16
		topo = topology.NewFatTree(16, leaves, 8)
		params, energy = fabric.InfiniBandFDR, fabric.InfiniBandEnergy
		shape, units, unitNodes = fmt.Sprintf("fattree=%d", topo.Nodes()), leaves, 16
	case "crossbar":
		topo, shape = topology.NewCrossbar(m.boosterNodes), fmt.Sprintf("crossbar=%d", m.boosterNodes)
		unitNodes = topo.Nodes()
	default:
		return nil, fmt.Errorf("deep: unknown traffic topology %q (want torus, fattree or crossbar)", w.Topology)
	}
	k := m.Domains()
	switch {
	case w.ErrorRate < 0 || w.ErrorRate >= 1:
		return nil, fmt.Errorf("deep: traffic error rate %v outside [0, 1)", w.ErrorRate)
	case k > 1 && w.Topology == "crossbar":
		return nil, fmt.Errorf("deep: a crossbar is %w: run WithDomains(1)", ErrPartitionUnsupported)
	case k > 1 && w.ErrorRate > 0:
		return nil, fmt.Errorf("deep: packet error injection is %w: run WithDomains(1)", ErrPartitionUnsupported)
	}
	params.PacketErrorRate, params.MaxRetries = w.ErrorRate, 64
	nodes := topo.Nodes()

	// The traffic pattern depends only on the run seed, never on the
	// kernel: the same (start, src, dst) list is injected under any
	// domain count.
	type item struct {
		start    sim.Time
		src, dst topology.NodeID
	}
	var items []item
	exchange := func(msgs []apps.Message) {
		for _, msg := range msgs {
			items = append(items, item{src: msg.Src, dst: msg.Dst})
		}
	}
	switch w.Pattern {
	case "", "random":
		r := rng.New(env.Seed)
		items = make([]item, count)
		for i := range items {
			items[i] = item{
				start: sim.Time(r.Intn(int(window))),
				src:   topology.NodeID(r.Intn(nodes)),
				dst:   topology.NodeID(r.Intn(nodes)),
			}
		}
	case "neighbor":
		if tor == nil {
			return nil, fmt.Errorf("deep: the neighbor pattern needs the torus topology, not %q", w.Topology)
		}
		exchange(apps.NearestNeighbor3D(tor, size))
	case "alltoall":
		exchange(apps.AllToAll(nodes, size))
	default:
		return nil, fmt.Errorf("deep: unknown traffic pattern %q (want random, neighbor or alltoall)", w.Pattern)
	}
	count = len(items)
	delivered := make([]sim.Time, count)

	doms, err := fabric.NewDomains(topo, params, m.seed, machine.SlabBounds(units, unitNodes, k))
	if err != nil {
		return nil, err
	}
	doms.SetFidelity(fid)
	k = doms.Domains()
	if mw := m.MaxWindow(); mw > 1 {
		doms.SetMaxWindow(mw)
	}
	if m.energy {
		doms.SetEnergyModel(energy)
	}
	for i, it := range items {
		i, it := i, it
		sh := doms.ShardOf(it.src)
		sh.Eng.At(it.start, func() {
			sh.Send(it.src, it.dst, size, func(at sim.Time, err error) {
				if err == nil {
					delivered[i] = at
				}
			})
		})
	}
	finish := doms.Run()
	st := doms.Stats()
	if k > 1 {
		res.Kernel = clusterKernelStats(doms.KernelStats())
	} else {
		res.Kernel = kernelStats(doms.KernelStats().Agg)
	}

	done := 0
	for _, at := range delivered {
		if at > 0 {
			done++
		}
	}
	res.Summary = fmt.Sprintf("msgs=%d bytes=%d %s fidelity=%v domains=%d", count, size, shape, fid, k)
	if w.Pattern != "" && w.Pattern != "random" {
		res.Summary += " pattern=" + w.Pattern
	}
	res.ModelTime = ModelTime(finish.Seconds())
	res.addMetric("messages", float64(st.Messages), "")
	res.addMetric("delivered_bytes", float64(st.BytesDelivered), "B")
	res.addMetric("cross_messages", float64(st.CrossMessages), "")
	res.addMetric("max_link_util", doms.MaxLinkUtilisation(), "")
	if w.ErrorRate > 0 {
		res.Summary += fmt.Sprintf(" error=%g", w.ErrorRate)
		res.addMetric("retransmits", float64(st.Retransmits), "")
		res.addMetric("drops", float64(st.Drops), "")
	}
	if m.energy {
		joules := doms.EnergyJoules(finish)
		res.Energy = &EnergyReport{
			Joules:  joules,
			Charges: []Metric{{Name: "fabric", Value: joules, Unit: "J"}},
		}
		res.addMetric("joules", joules, "J")
	}
	// Verification for a traffic run: every injected message was
	// delivered, and the fabric's own ledger agrees.
	res.Verified = done == count && st.BytesDelivered == uint64(count*size)
	if !res.Verified {
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d messages undelivered", count-done, count))
	}
	return res, nil
}
