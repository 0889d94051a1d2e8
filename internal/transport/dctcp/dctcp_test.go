package dctcp_test

import (
	"fmt"
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

// A lone flow on SingleRack(2) is exact arithmetic for all three laws
// of the package: a window cut or a gain only acts on a later window,
// and with InitCwnd 10 a 10 KB flow's seven segments all leave in the
// first. Each way crosses two links at one rate; the ToR stores and
// forwards, so a segment leaves it one serialization after the one
// before, and the last ACK (40 B) crosses both links back.
func TestLoneFlowExact(t *testing.T) {
	cfg := topology.SingleRack(2, nil)
	ser := func(bytes int32) sim.Duration { return cfg.EdgeRate.Serialize(bytes) }
	ack := 2 * (cfg.LinkDelay + ser(pkt.HeaderSize))
	// 1 000 B: one 1 040 B segment, stored and forwarded once.
	oneSeg := 2*(cfg.LinkDelay+ser(1000+pkt.HeaderSize)) + ack
	// 10 KB: six full segments and a 1 240 B tail. The first reaches
	// the ToR one MTU serialization and one link delay out; the ToR then
	// sends the six back to back, the tail right behind them.
	tail := int32(10_000-6*pkt.MSS) + pkt.HeaderSize
	tenKB := ser(pkt.MTU) + cfg.LinkDelay + 6*ser(pkt.MTU) + ser(tail) + cfg.LinkDelay + ack
	if dctcp.DefaultConfig().InitCwnd < float64(pkt.DataPackets(10_000)) {
		t.Fatal("10 KB no longer fits the initial window; the 10 KB form does not hold")
	}
	for _, law := range []struct {
		name    string
		factory func(dctcp.Config) func(*transport.Sender) transport.Control
	}{{"DCTCP", dctcp.New}, {"D2TCP", dctcp.NewD2TCP}, {"L2DCT", dctcp.NewL2DCT}} {
		for _, row := range []struct {
			size int64
			form sim.Duration
		}{{1000, oneSeg}, {10_000, tenKB}} {
			t.Run(fmt.Sprintf("%s/%dB", law.name, row.size), func(t *testing.T) {
				d := transport.NewDriver(rack(2), law.factory(dctcp.DefaultConfig()))
				d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: row.size, Start: 0}})
				s, err := d.Run(sim.Time(sim.Second))
				if err != nil {
					t.Fatal(err)
				}
				if s.AFCT != row.form {
					t.Errorf("lone %d B flow FCT = %v, want %v", row.size, s.AFCT, row.form)
				}
			})
		}
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
