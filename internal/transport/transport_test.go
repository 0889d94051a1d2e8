package transport_test

import (
	"math"
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
	"pase/internal/workload"
)

func redq(topology.QueueKind) netem.Queue { return netem.NewREDECN(225, 65) }

func singleRack(n int) *topology.Network {
	return topology.Build(sim.NewEngine(), topology.SingleRack(n, redq))
}

func flow(id pkt.FlowID, src, dst pkt.NodeID, size int64, start sim.Time) workload.FlowSpec {
	return workload.FlowSpec{ID: id, Src: src, Dst: dst, Size: size, Start: start}
}

func TestSingleFlowCompletes(t *testing.T) {
	net := singleRack(4)
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	d.Schedule([]workload.FlowSpec{flow(1, 0, 1, 150000, 0)})
	s, err := d.Run(sim.Time(5 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 1 {
		t.Fatalf("completed = %d, want 1", s.Completed)
	}
	// 150 KB at 1 Gbps is ~1.2ms of serialization plus ramp-up; with a
	// 100µs RTT the FCT must land well under 5ms and above the
	// line-rate bound.
	lineRate := sim.Duration(float64(150000*8) / 1e9 * float64(sim.Second))
	if s.AFCT < lineRate {
		t.Fatalf("AFCT %v below line-rate bound %v", s.AFCT, lineRate)
	}
	if s.AFCT > 5*sim.Millisecond {
		t.Fatalf("AFCT %v too slow", s.AFCT)
	}
	if s.Retransmits != 0 {
		t.Fatalf("unexpected retransmissions: %d", s.Retransmits)
	}
}

func TestTinyFlowSingleSegment(t *testing.T) {
	net := singleRack(2)
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	d.Schedule([]workload.FlowSpec{flow(1, 0, 1, 100, 0)})
	s, err := d.Run(sim.Time(time1s()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 1 {
		t.Fatalf("completed = %d, want 1", s.Completed)
	}
	// One segment + ACK ≈ one RTT (100µs) plus serialization.
	if s.AFCT > 200*sim.Microsecond {
		t.Fatalf("tiny flow FCT = %v, want ≈RTT", s.AFCT)
	}
}

func time1s() sim.Time { return sim.Time(sim.Second) }

func TestManyFlowsAllComplete(t *testing.T) {
	net := singleRack(8)
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	r := sim.NewRand(42)
	spec := workload.Spec{
		Pattern:   workload.AllToAll{Hosts: workload.HostRange(0, 8)},
		Sizes:     workload.UniformSize{Min: 2000, Max: 198000},
		Load:      0.4,
		Reference: 8 * netem.Gbps,
		NumFlows:  200,
	}
	d.Schedule(spec.Generate(r, 1))
	s, err := d.Run(sim.Time(20 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 200 {
		t.Fatalf("completed = %d, want 200", s.Completed)
	}
	if s.AFCT <= 0 {
		t.Fatal("AFCT must be positive")
	}
}

func TestFairSharingTwoFlows(t *testing.T) {
	// Two long DCTCP flows into the same receiver should split the
	// 1 Gbps downlink roughly evenly: equal sizes finish around the
	// same time, and the total throughput approximates the link rate.
	net := singleRack(4)
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	const size = 2_000_000
	d.Schedule([]workload.FlowSpec{
		flow(1, 0, 2, size, 0),
		flow(2, 1, 2, size, 0),
	})
	s, err := d.Run(sim.Time(5 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 2 {
		t.Fatalf("completed = %d, want 2", s.Completed)
	}
	recs := d.Collector.Records()
	f1, f2 := recs[0].FCT().Seconds(), recs[1].FCT().Seconds()
	ideal := float64(2*size*8) / 1e9 // both flows through one 1Gbps link
	slower := math.Max(f1, f2)
	if slower < ideal*0.95 {
		t.Fatalf("finished faster than the link allows: %v < %v", slower, ideal)
	}
	if slower > ideal*1.6 {
		t.Fatalf("poor utilization: %v vs ideal %v", slower, ideal)
	}
	if math.Abs(f1-f2)/slower > 0.35 {
		t.Fatalf("unfair split: %v vs %v", f1, f2)
	}
}

func TestECNKeepsQueuesShortAndLossless(t *testing.T) {
	net := singleRack(6)
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	var flows []workload.FlowSpec
	for i := 0; i < 5; i++ {
		flows = append(flows, flow(pkt.FlowID(i+1), pkt.NodeID(i), 5, 500000, 0))
	}
	d.Schedule(flows)
	if _, err := d.Run(sim.Time(5 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	st := net.QueueStatsTotal()
	if st.Marked == 0 {
		t.Fatal("expected ECN marks under 5-way incast")
	}
	if st.Dropped > 0 {
		t.Fatalf("DCTCP with 225-pkt buffers should not drop, dropped %d", st.Dropped)
	}
}

func TestLossRecoveryUnderTinyBuffers(t *testing.T) {
	// 8-packet drop-tail buffers with no ECN forces real losses; the
	// flows must still complete via fast retransmit / RTO.
	eng := sim.NewEngine()
	net := topology.Build(eng, topology.SingleRack(6, func(topology.QueueKind) netem.Queue {
		return netem.NewDropTail(8)
	}))
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	var flows []workload.FlowSpec
	for i := 0; i < 5; i++ {
		flows = append(flows, flow(pkt.FlowID(i+1), pkt.NodeID(i), 5, 300000, 0))
	}
	d.Schedule(flows)
	s, err := d.Run(sim.Time(10 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 5 {
		t.Fatalf("completed = %d, want 5", s.Completed)
	}
	if net.QueueStatsTotal().Dropped == 0 {
		t.Fatal("scenario should actually drop packets")
	}
	if s.Retransmits == 0 {
		t.Fatal("recovery must have retransmitted something")
	}
}

func TestBackgroundFlowExcludedFromStats(t *testing.T) {
	net := singleRack(4)
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	d.Schedule([]workload.FlowSpec{
		{ID: 1, Src: 0, Dst: 1, Size: 1 << 30, Start: 0, Background: true},
		flow(2, 2, 3, 100000, 0),
	})
	s, err := d.Run(sim.Time(2 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Flows != 1 || s.Completed != 1 {
		t.Fatalf("stats should only see the foreground flow: %+v", s)
	}
}

func TestUnfinishedFlowRecordedIncomplete(t *testing.T) {
	net := singleRack(4)
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	// 1 GB foreground flow cannot finish in 10ms of simulated time.
	d.Schedule([]workload.FlowSpec{flow(1, 0, 1, 1<<30, 0)})
	s, err := d.Run(sim.Time(10 * sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if s.Flows != 1 || s.Completed != 0 {
		t.Fatalf("want 1 incomplete flow, got %+v", s)
	}
}

func TestDeadlineMetadataPropagates(t *testing.T) {
	net := singleRack(4)
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	f := flow(1, 0, 1, 50000, 0)
	f.Deadline = sim.Time(20 * sim.Millisecond)
	d.Schedule([]workload.FlowSpec{f})
	s, err := d.Run(sim.Time(sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.DeadlineFlows != 1 || s.AppThroughput != 1 {
		t.Fatalf("deadline accounting wrong: %+v", s)
	}
}

func TestDriverDeterminism(t *testing.T) {
	run := func() sim.Duration {
		net := singleRack(8)
		d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
		spec := workload.Spec{
			Pattern:   workload.AllToAll{Hosts: workload.HostRange(0, 8)},
			Sizes:     workload.UniformSize{Min: 2000, Max: 198000},
			Load:      0.5,
			Reference: 8 * netem.Gbps,
			NumFlows:  100,
		}
		d.Schedule(spec.Generate(sim.NewRand(7), 1))
		s, err := d.Run(sim.Time(20 * sim.Second))
		if err != nil {
			t.Fatal(err)
		}
		return s.AFCT
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical seeds gave different AFCTs: %v vs %v", a, b)
	}
}

func TestStartFlowOnWrongHostPanics(t *testing.T) {
	net := singleRack(2)
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Stack(0).StartFlow(flow(1, 1, 0, 1000, 0))
}

func TestDuplicateFlowIDPanics(t *testing.T) {
	net := singleRack(2)
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	d.Stack(0).StartFlow(flow(1, 0, 1, 1000, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Stack(0).StartFlow(flow(1, 0, 1, 1000, 0))
}
