package transport_test

import (
	"testing"
	"testing/quick"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
	"pase/internal/workload"
)

// TestExactlyOnceGoodput checks the end-to-end data-integrity
// invariant: for every completed flow, the receiver observed every
// segment at least once and the sender counted exactly the flow's
// payload as acknowledged — no byte lost, none double-counted —
// even under heavy loss.
func TestExactlyOnceGoodput(t *testing.T) {
	eng := sim.NewEngine()
	net := topology.Build(eng, topology.SingleRack(6, func(topology.QueueKind) netem.Queue {
		return netem.NewDropTail(6) // brutal buffers
	}))
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))

	// Count distinct segments seen per flow at the receiver.
	type key struct {
		flow pkt.FlowID
		seq  int32
	}
	seen := make(map[key]int)
	for _, h := range net.Hosts {
		inner := h.Handler
		h.Handler = func(p *pkt.Packet) {
			if p.Type == pkt.Data {
				seen[key{p.Flow, p.Seq}]++
			}
			inner(p)
		}
	}

	var flows []workload.FlowSpec
	sizes := []int64{1, 1000, 1460, 1461, 50_000, 149_999}
	for i, size := range sizes {
		flows = append(flows, workload.FlowSpec{
			ID: pkt.FlowID(i + 1), Src: pkt.NodeID(i % 5), Dst: 5, Size: size, Start: 0,
		})
	}
	d.Schedule(flows)
	s, err := d.Run(sim.Time(30 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != len(sizes) {
		t.Fatalf("completed %d/%d", s.Completed, len(sizes))
	}
	for i, size := range sizes {
		segs := pkt.DataPackets(size)
		for q := int32(0); q < segs; q++ {
			if seen[key{pkt.FlowID(i + 1), q}] == 0 {
				t.Fatalf("flow %d segment %d never reached the receiver", i+1, q)
			}
		}
	}
}

// Property: the collector's byte accounting matches the workload for
// arbitrary flow sizes.
func TestCollectorSizeAccounting(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		eng := sim.NewEngine()
		net := topology.Build(eng, topology.SingleRack(4, func(topology.QueueKind) netem.Queue {
			return netem.NewREDECN(225, 65)
		}))
		d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
		var want int64
		var flows []workload.FlowSpec
		for i, r := range raw {
			size := int64(r%200_000) + 1
			want += size
			flows = append(flows, workload.FlowSpec{
				ID: pkt.FlowID(i + 1), Src: pkt.NodeID(i % 3), Dst: 3, Size: size,
				Start: sim.Time(i) * sim.Time(sim.Millisecond),
			})
		}
		d.Schedule(flows)
		if _, err := d.Run(sim.Time(30 * sim.Second)); err != nil {
			return false
		}
		var got int64
		for _, rec := range d.Collector.Records() {
			if rec.Done {
				got += rec.Size
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestNoForeverFlows: with an adversarially tiny buffer and many
// concurrent flows, nothing deadlocks — the run terminates with all
// flows complete well before the deadline.
func TestNoForeverFlows(t *testing.T) {
	eng := sim.NewEngine()
	net := topology.Build(eng, topology.SingleRack(8, func(topology.QueueKind) netem.Queue {
		return netem.NewDropTail(4)
	}))
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	spec := workload.Spec{
		Pattern:   workload.AllToAll{Hosts: workload.HostRange(0, 8)},
		Sizes:     workload.UniformSize{Min: 1000, Max: 60_000},
		Load:      0.7,
		Reference: 8 * netem.Gbps,
		NumFlows:  120,
	}
	d.Schedule(spec.Generate(sim.NewRand(17), 1))
	s, err := d.Run(sim.Time(120 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 120 {
		t.Fatalf("completed %d/120 under loss", s.Completed)
	}
}
