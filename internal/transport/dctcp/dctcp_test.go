package dctcp_test

import (
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
	"pase/internal/workload"
)

func rack(n int) *topology.Network {
	return topology.Build(sim.NewEngine(), topology.SingleRack(n, func(topology.QueueKind) netem.Queue {
		return netem.NewREDECN(225, 65)
	}))
}

func TestLongTransferApproachesLineRate(t *testing.T) {
	net := rack(2)
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	const size = 10_000_000
	d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: size, Start: 0}})
	s, err := d.Run(sim.Time(5 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	ideal := float64(size*8) / 1e9
	got := s.AFCT.Seconds()
	// Goodput should be within 15% of line rate for a 10 MB flow.
	if got > ideal*1.15 {
		t.Fatalf("10MB FCT = %vs, line-rate ideal %vs", got, ideal)
	}
}

// A lone one-packet flow on SingleRack(2) is exact arithmetic: each way
// crosses two links, and the ToR stores and forwards the 1 040 B data
// packet and the 40 B ACK.
func TestLoneFlowExact(t *testing.T) {
	cfg := topology.SingleRack(2, nil)
	ser := func(bytes int) sim.Duration { return cfg.EdgeRate.Serialize(int32(bytes)) }
	const size = 1000
	want := 4*cfg.LinkDelay + 2*ser(size+pkt.HeaderSize) + 2*ser(pkt.HeaderSize)
	d := transport.NewDriver(rack(2), dctcp.New(dctcp.DefaultConfig()))
	d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: size, Start: 0}})
	s, err := d.Run(sim.Time(sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.AFCT != want {
		t.Errorf("DCTCP lone %d B flow FCT = %v, want %v", size, s.AFCT, want)
	}
}

func TestIncastManyToOne(t *testing.T) {
	// 10 senders to 1 receiver: the classic DCTCP scenario; ECN must
	// keep it lossless and all flows complete.
	net := rack(11)
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	var flows []workload.FlowSpec
	for i := 0; i < 10; i++ {
		flows = append(flows, workload.FlowSpec{
			ID: pkt.FlowID(i + 1), Src: pkt.NodeID(i), Dst: 10, Size: 200000, Start: 0,
		})
	}
	d.Schedule(flows)
	s, err := d.Run(sim.Time(5 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 10 {
		t.Fatalf("completed = %d, want 10", s.Completed)
	}
	if drops := net.QueueStatsTotal().Dropped; drops != 0 {
		t.Fatalf("DCTCP incast dropped %d packets", drops)
	}
	// Aggregate goodput near line rate: total 2MB over 1Gbps ≈ 16ms.
	if s.MaxFCT.Seconds() > 0.016*1.4 {
		t.Fatalf("slowest flow %v, want ≈16ms", s.MaxFCT)
	}
}

func TestMarkingKeepsQueueNearK(t *testing.T) {
	// One long flow through a marking queue: the bottleneck queue's
	// maximum occupancy should sit near K, far below the 225 limit.
	// With equal 1 Gbps edge rates the queue builds at the sender's
	// NIC — the first queue the flow's packets traverse.
	eng := sim.NewEngine()
	var nics []*netem.REDECN
	net := topology.Build(eng, topology.SingleRack(2, func(k topology.QueueKind) netem.Queue {
		q := netem.NewREDECN(225, 65)
		if k == topology.QueueHostNIC {
			nics = append(nics, q)
		}
		return q
	}))
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: 5_000_000, Start: 0}})
	if _, err := d.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	bottleneck := nics[0] // host 0's NIC
	if bottleneck.Stats().MaxLen > 3*65 {
		t.Fatalf("queue grew to %d, marking should cap near K=65", bottleneck.Stats().MaxLen)
	}
	if bottleneck.Stats().Marked == 0 {
		t.Fatal("bottleneck should have marked packets")
	}
}
