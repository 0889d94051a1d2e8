package topology

import (
	"slices"
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
)

func dtq(QueueKind) netem.Queue { return netem.NewDropTail(1000) }

func buildBaseline(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	n := Build(eng, Baseline(dtq))
	return eng, n
}

func TestBaselineShape(t *testing.T) {
	_, n := buildBaseline(t)
	if got := n.NumHosts(); got != 160 {
		t.Fatalf("hosts = %d, want 160", got)
	}
	if len(n.ToRs) != 4 || len(n.Aggs) != 2 || n.Core == nil {
		t.Fatalf("switch counts: tors=%d aggs=%d core=%v", len(n.ToRs), len(n.Aggs), n.Core)
	}
	// 160 host links + 4 tor-agg + 2 agg-core, two directions each.
	if got := len(n.Links); got != (160+4+2)*2 {
		t.Fatalf("links = %d, want %d", got, (160+4+2)*2)
	}
	// Oversubscription: 40 hosts × 1Gbps vs one 10Gbps uplink = 4:1.
	path, hops := n.AppendPath(nil, 0, 159, 0)
	up := path[:hops]
	if len(up) != 3 {
		t.Fatalf("up links = %d, want 3", len(up))
	}
	if up[0].Capacity() != netem.Gbps || up[1].Capacity() != 10*netem.Gbps || up[2].Capacity() != 10*netem.Gbps {
		t.Fatalf("capacities = %v %v %v", up[0].Capacity(), up[1].Capacity(), up[2].Capacity())
	}
}

func TestRackAndAggAssignment(t *testing.T) {
	_, n := buildBaseline(t)
	if n.RackOf(0) != 0 || n.RackOf(39) != 0 || n.RackOf(40) != 1 || n.RackOf(159) != 3 {
		t.Fatal("rack assignment wrong")
	}
	if n.AggOf(0) != 0 || n.AggOf(79) != 0 || n.AggOf(80) != 1 || n.AggOf(159) != 1 {
		t.Fatal("agg assignment wrong")
	}
}

// halves returns the source and destination halves of a path.
func halves(n *Network, src, dst pkt.NodeID) (up, down []*Link) {
	path, k := n.AppendPath(nil, src, dst, 0)
	return path[:k], path[k:]
}

func TestPathHalves(t *testing.T) {
	_, n := buildBaseline(t)
	// Same rack: 1 up + 1 down.
	up, down := halves(n, 0, 1)
	if len(up) != 1 || len(down) != 1 {
		t.Fatalf("intra-rack halves = %d/%d, want 1/1", len(up), len(down))
	}
	if up[0].Level != LevelHostToR || !up[0].Up || down[0].Level != LevelHostToR || down[0].Up {
		t.Fatal("intra-rack links misclassified")
	}
	// Same agg, different rack (host 0 rack 0, host 40 rack 1): 2 up + 2 down.
	up, down = halves(n, 0, 40)
	if len(up) != 2 || len(down) != 2 {
		t.Fatalf("intra-agg halves = %d/%d, want 2/2", len(up), len(down))
	}
	if down[0].Level != LevelToRAgg || down[1].Level != LevelHostToR {
		t.Fatal("down half must be top-down ordered")
	}
	// Across core (host 0, host 159): 3 up + 3 down.
	up, down = halves(n, 0, 159)
	if len(up) != 3 || len(down) != 3 {
		t.Fatalf("cross-core halves = %d/%d, want 3/3", len(up), len(down))
	}
	if up[2].Level != LevelAggCore || down[0].Level != LevelAggCore {
		t.Fatal("cross-core halves must include agg-core links")
	}
}

func TestBaseRTT(t *testing.T) {
	_, n := buildBaseline(t)
	// Cross-core: 6 links × 25µs × 2 = 300µs, the paper's base RTT.
	if rtt := n.BaseRTT(0, 159); rtt != 300*sim.Microsecond {
		t.Fatalf("cross-core RTT = %v, want 300µs", rtt)
	}
	// Intra-rack: 2 links × 25µs × 2 = 100µs.
	if rtt := n.BaseRTT(0, 1); rtt != 100*sim.Microsecond {
		t.Fatalf("intra-rack RTT = %v, want 100µs", rtt)
	}
}

func TestTestbedRTT(t *testing.T) {
	eng := sim.NewEngine()
	n := Build(eng, Testbed(dtq))
	if n.NumHosts() != 10 {
		t.Fatalf("testbed hosts = %d, want 10", n.NumHosts())
	}
	if rtt := n.BaseRTT(0, 9); rtt != 250*sim.Microsecond {
		t.Fatalf("testbed RTT = %v, want 250µs", rtt)
	}
}

// deliverAndCheck sends one packet between each host pair of interest
// and verifies delivery through the routed fabric.
func TestEndToEndDelivery(t *testing.T) {
	eng, n := buildBaseline(t)
	type key struct{ src, dst pkt.NodeID }
	delivered := make(map[key]bool)
	for _, h := range n.Hosts {
		h := h
		h.Handler = func(p *pkt.Packet) {
			if p.Dst != h.ID() {
				t.Errorf("host %d got packet for %d", h.ID(), p.Dst)
			}
			delivered[key{p.Src, p.Dst}] = true
		}
	}
	pairs := []key{
		{0, 1},   // intra-rack
		{0, 40},  // inter-rack same agg
		{0, 159}, // cross-core
		{159, 0}, // reverse direction
		{80, 79}, // agg boundary
		{39, 40}, // rack boundary
	}
	for _, pr := range pairs {
		p := &pkt.Packet{Src: pr.src, Dst: pr.dst, Size: pkt.MTU, Type: pkt.Data}
		n.Host(int(pr.src)).Send(p)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs {
		if !delivered[pr] {
			t.Errorf("pair %v not delivered", pr)
		}
	}
}

func TestAllPairsReachability(t *testing.T) {
	// Smaller fabric, exhaustive all-pairs delivery.
	eng := sim.NewEngine()
	cfg := Config{
		Racks: 4, HostsPerRack: 2, RacksPerAgg: 2,
		EdgeRate: netem.Gbps, FabricRate: 10 * netem.Gbps,
		LinkDelay: sim.Microsecond, NewQueue: dtq,
	}
	n := Build(eng, cfg)
	recv := make(map[pkt.NodeID]int)
	for _, h := range n.Hosts {
		h := h
		h.Handler = func(p *pkt.Packet) { recv[h.ID()]++ }
	}
	for _, src := range n.Hosts {
		for _, dst := range n.Hosts {
			if src == dst {
				continue
			}
			src.Send(&pkt.Packet{Src: src.ID(), Dst: dst.ID(), Size: 100, Type: pkt.Data})
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, h := range n.Hosts {
		if recv[h.ID()] != n.NumHosts()-1 {
			t.Fatalf("host %d received %d, want %d", h.ID(), recv[h.ID()], n.NumHosts()-1)
		}
	}
}

func TestPathMatchesRouting(t *testing.T) {
	// The links reported by Path must be exactly the ports a packet
	// traverses; verify by checking hop count equals path length.
	eng, n := buildBaseline(t)
	var hops int8
	n.Host(159).Handler = func(p *pkt.Packet) { hops = p.Hops }
	n.Host(0).Send(&pkt.Packet{Src: 0, Dst: 159, Size: 100, Type: pkt.Data})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if path, _ := n.AppendPath(nil, 0, 159, 0); int(hops) != len(path) {
		t.Fatalf("hops = %d, path length = %d", hops, len(path))
	}
}

func TestSingleRackHasNoFabricLayer(t *testing.T) {
	eng := sim.NewEngine()
	n := Build(eng, SingleRack(20, dtq))
	if len(n.Aggs) != 0 || n.Core != nil {
		t.Fatal("single rack should not build agg/core")
	}
	if len(n.Links) != 2*20 {
		t.Fatal("single-rack hosts have exactly one up and one down link")
	}
	if path, up := n.AppendPath(nil, 0, 19, 0); len(path) != 2 || up != 1 {
		t.Fatalf("path length = %d with %d up, want 2 with 1", len(path), up)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Racks: 0, HostsPerRack: 1, NewQueue: dtq},
		{Racks: 3, HostsPerRack: 1, RacksPerAgg: 2, NewQueue: dtq, EdgeRate: netem.Gbps, FabricRate: netem.Gbps},
		{Racks: 1, HostsPerRack: 1}, // no queue factory
		{Racks: 1, HostsPerRack: 1, Spines: -1, NewQueue: dtq},
	} {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			Build(sim.NewEngine(), cfg)
		}()
	}
}

// TestLeafSpineInvalidConfigPanics: a leaf-spine Config (Spines > 0)
// with no leaves, no queue factory, or an aggregation grouping panics.
func TestLeafSpineInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Racks: 0, HostsPerRack: 1, Spines: 1, NewQueue: dtq},
		{Racks: 1, HostsPerRack: 1, Spines: 1}, // no queue factory
		// A leaf-spine has no aggregation tier to group racks under.
		{Racks: 4, HostsPerRack: 1, RacksPerAgg: 2, Spines: 2, NewQueue: dtq, EdgeRate: netem.Gbps, FabricRate: netem.Gbps},
	} {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			Build(sim.NewEngine(), cfg)
		}()
	}
}

// TestQueueStatsTotalAggregates checks QueueStatsTotal and
// HostQueueStats, on a tree and a leaf-spine, against a reference walk
// over every host port and every switch's ports, spines included.
func TestQueueStatsTotalAggregates(t *testing.T) {
	for _, cfg := range []Config{Baseline(dtq), DefaultLeafSpine(dtq)} {
		eng := sim.NewEngine()
		n := Build(eng, cfg)
		far := pkt.NodeID(n.NumHosts() - 1)
		n.Host(1).Handler = func(*pkt.Packet) {}
		n.Hosts[far].Handler = func(*pkt.Packet) {}
		// A burst from two hosts to a far one queues behind itself; one
		// packet stays in the rack.
		path, _ := n.AppendPath(nil, 0, 1, 0)
		hops := len(path)
		n.Host(0).Send(&pkt.Packet{Src: 0, Dst: 1, Size: pkt.MTU, Type: pkt.Data})
		for f := pkt.FlowID(1); f <= 20; f++ {
			for _, src := range []pkt.NodeID{0, 2} {
				path, _ = n.AppendPath(path[:0], src, far, f)
				hops += len(path)
				n.Hosts[src].Send(&pkt.Packet{Flow: f, Src: src, Dst: far, Size: pkt.MTU, Type: pkt.Data})
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		var want, wantHost netem.QueueStats
		add := func(total *netem.QueueStats, p *netem.Port) {
			s := p.Queue().Stats()
			total.Enqueued += s.Enqueued
			total.Dequeued += s.Dequeued
			total.Dropped += s.Dropped
			total.DroppedBytes += s.DroppedBytes
			total.Marked += s.Marked
			total.EnqueuedData += s.EnqueuedData
			total.DroppedData += s.DroppedData
			total.EnqueuedCredit += s.EnqueuedCredit
			total.DroppedCredit += s.DroppedCredit
			total.MaxLen = max(total.MaxLen, s.MaxLen)
		}
		for _, h := range n.Hosts {
			add(&want, h.Port())
			add(&wantHost, h.Port())
		}
		switches := append(append(slices.Clone(n.ToRs), n.Aggs...), n.Spines...)
		if n.Core != nil {
			switches = append(switches, n.Core)
		}
		for _, sw := range switches {
			for _, p := range sw.Ports() {
				add(&want, p)
			}
		}
		// Each packet is queued once per link of its path.
		if want.Enqueued != int64(hops) || want.Dequeued != int64(hops) || want.MaxLen < 2 {
			t.Fatalf("leaf-spine=%v: the ports saw %+v, want %d enqueues and a queue", n.IsLeafSpine(), want, hops)
		}
		if got := n.QueueStatsTotal(); got != want {
			t.Errorf("leaf-spine=%v: QueueStatsTotal = %+v, the ports sum to %+v", n.IsLeafSpine(), got, want)
		}
		if got := n.HostQueueStats(); got != wantHost {
			t.Errorf("leaf-spine=%v: HostQueueStats = %+v, the NICs sum to %+v", n.IsLeafSpine(), got, wantHost)
		}
	}
}
