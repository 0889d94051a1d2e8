package pfabric_test

import (
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/transport/pfabric"
	"pase/internal/workload"
)

// pfRack builds a single-rack fabric with pFabric switch queues
// (Table 3: qSize = 76 pkts ≈ 2×BDP).
func pfRack(n int) *topology.Network {
	return topology.Build(sim.NewEngine(), topology.SingleRack(n, func(topology.QueueKind) netem.Queue {
		return netem.NewPFabric(76)
	}))
}

// A lone flow on SingleRack(2) is exact arithmetic: the host sends at
// line rate from its first packet, the ToR's egress runs one
// store-and-forward of the first packet behind it, and one 40 B ACK
// returns; each way crosses two links. The 150 KB flow's short tail
// segment reaches the ToR while the last full one is still leaving, so
// the pipeline delay is a full packet's.
func TestLoneFlowFast(t *testing.T) {
	cfg := topology.SingleRack(2, nil)
	ser := func(bytes int) sim.Duration { return cfg.EdgeRate.Serialize(int32(bytes)) }
	base := 4*cfg.LinkDelay + 2*ser(pkt.HeaderSize) // propagation and the ACK
	const big = 150_000
	full, tail := big/pkt.MSS, big%pkt.MSS+pkt.HeaderSize // 102 × 1 500 B and one 1 120 B
	for _, c := range []struct {
		size int64
		want sim.Duration
	}{
		{1000, base + 2*ser(1000+pkt.HeaderSize)},
		{big, base + sim.Duration(full)*ser(pkt.MTU) + ser(tail) + ser(pkt.MTU)},
	} {
		d := transport.NewDriver(pfRack(2), pfabric.New())
		d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: c.size, Start: 0}})
		s, err := d.Run(sim.Time(sim.Second))
		if err != nil {
			t.Fatal(err)
		}
		if s.AFCT != c.want {
			t.Errorf("pFabric lone %d B flow FCT = %v, want %v", c.size, s.AFCT, c.want)
		}
	}
}

func TestShortPreemptsLong(t *testing.T) {
	// A short flow arriving mid-way through a long transfer to the
	// same receiver must finish almost as if the long flow were absent
	// (remaining-size priority ⇒ strict preemption in the fabric).
	net := pfRack(4)
	d := transport.NewDriver(net, pfabric.New())
	d.Schedule([]workload.FlowSpec{
		{ID: 1, Src: 0, Dst: 2, Size: 1 << 30, Start: 0, Background: true},
		{ID: 2, Src: 1, Dst: 2, Size: 50_000, Start: sim.Time(10 * sim.Millisecond)},
	})
	s, err := d.Run(sim.Time(2 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 1 {
		t.Fatal("short flow did not complete")
	}
	// Unloaded bound: ~0.4ms serialization + 0.1ms RTT. Allow 3x for
	// residual interference and recovery.
	if s.AFCT > 1500*sim.Microsecond {
		t.Fatalf("preempted-path short FCT = %v, want near-unloaded", s.AFCT)
	}
}

func TestHighLoadAllToAllCausesLosses(t *testing.T) {
	// Figure 4's mechanism: all-to-all at high load makes pFabric's
	// line-rate senders collide at downstream edge links and shed a
	// substantial fraction of packets.
	net := pfRack(10)
	d := transport.NewDriver(net, pfabric.New())
	spec := workload.Spec{
		Pattern:   workload.AllToAll{Hosts: workload.HostRange(0, 10)},
		Sizes:     workload.UniformSize{Min: 2_000, Max: 198_000},
		Load:      0.8,
		Reference: 10 * netem.Gbps,
		NumFlows:  400,
	}
	d.Schedule(spec.Generate(sim.NewRand(8), 1))
	s, err := d.Run(sim.Time(30 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 400 {
		t.Fatalf("completed = %d, want 400", s.Completed)
	}
	st := net.QueueStatsTotal()
	if st.Dropped == 0 {
		t.Fatal("pFabric at 80% all-to-all load should drop packets")
	}
	lossRate := float64(st.DroppedData) / float64(st.DroppedData+st.Enqueued)
	if lossRate < 0.02 {
		t.Fatalf("loss rate %v suspiciously low for this scenario", lossRate)
	}
}

func TestRankIsRemainingSize(t *testing.T) {
	// Spy on the sender's NIC queue: ranks must decrease as the flow
	// progresses (remaining size shrinks).
	eng := sim.NewEngine()
	var ranks []int64
	net := topology.Build(eng, topology.SingleRack(2, func(k topology.QueueKind) netem.Queue {
		return netem.NewPFabric(76)
	}))
	d := transport.NewDriver(net, pfabric.New())
	// Tap packets at the receiving host.
	recvHost := net.Host(1)
	inner := recvHost.Handler
	recvHost.Handler = func(p *pkt.Packet) {
		if p.Type == pkt.Data {
			ranks = append(ranks, p.Rank)
		}
		inner(p)
	}
	d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: 100_000, Start: 0}})
	if _, err := d.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if len(ranks) == 0 {
		t.Fatal("no data observed")
	}
	if ranks[0] != 100_000 {
		t.Fatalf("first rank = %d, want full size", ranks[0])
	}
	if last := ranks[len(ranks)-1]; last >= ranks[0] {
		t.Fatalf("rank must shrink (first %d, last %d)", ranks[0], last)
	}
}
