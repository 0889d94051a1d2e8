package dctcp_test

import (
	"slices"
	"testing"

	"pase/internal/metrics"
	"pase/internal/netem"
	"pase/internal/sim"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
	"pase/internal/workload"
)

func TestBehavesLikeDCTCPWithoutDeadlines(t *testing.T) {
	run := func(factory func(*transport.Sender) transport.Control) []metrics.FlowRecord {
		net := rack(4)
		d := transport.NewDriver(net, factory)
		d.Schedule([]workload.FlowSpec{
			{ID: 1, Src: 0, Dst: 2, Size: 1_000_000, Start: 0},
			{ID: 2, Src: 1, Dst: 2, Size: 1_000_000, Start: 0},
		})
		s, err := d.Run(sim.Time(5 * sim.Second))
		if err != nil {
			t.Fatal(err)
		}
		if s.Completed != 2 {
			t.Fatalf("completed = %d", s.Completed)
		}
		return d.Collector.Records()
	}
	// Without deadlines D2TCP's penalty is math.Pow(alpha, 1) == alpha:
	// the same law, so the same run, record for record.
	a := run(dctcp.NewD2TCP(dctcp.DefaultConfig()))
	b := run(dctcp.New(dctcp.DefaultConfig()))
	if !slices.Equal(a, b) {
		t.Fatalf("no-deadline D2TCP diverges from DCTCP:\n%+v\n%+v", a, b)
	}
}

func TestTightDeadlineFlowWins(t *testing.T) {
	// Two equal flows into one receiver; one has a tight deadline, the
	// other a loose one. D2TCP must let the urgent flow finish first.
	net := rack(4)
	d := transport.NewDriver(net, dctcp.NewD2TCP(dctcp.DefaultConfig()))
	const size = 1_000_000
	tight := workload.FlowSpec{ID: 1, Src: 0, Dst: 2, Size: size, Start: 0,
		Deadline: sim.Time(14 * sim.Millisecond)}
	loose := workload.FlowSpec{ID: 2, Src: 1, Dst: 2, Size: size, Start: 0,
		Deadline: sim.Time(100 * sim.Millisecond)}
	d.Schedule([]workload.FlowSpec{tight, loose})
	s, err := d.Run(sim.Time(5 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 2 {
		t.Fatalf("completed = %d", s.Completed)
	}
	var tightFCT, looseFCT sim.Duration
	for _, r := range d.Collector.Records() {
		if r.ID == 1 {
			tightFCT = r.FCT()
		} else {
			looseFCT = r.FCT()
		}
	}
	if tightFCT >= looseFCT {
		t.Fatalf("tight-deadline flow (%v) should finish before loose one (%v)", tightFCT, looseFCT)
	}
	// The loose deadline (100 ms for an 8 ms transfer) must be met;
	// deadline-aware backoff should not wreck either flow.
	if s.AppThroughput < 0.5 {
		t.Fatalf("app throughput %v, want >= 0.5", s.AppThroughput)
	}
}

func TestDeadlineSweepMeetsMoreThanDCTCP(t *testing.T) {
	// The paper's motivating claim (Figure 1 region at moderate load):
	// deadline-awareness meets more deadlines than fair sharing.
	run := func(factory func(*transport.Sender) transport.Control) float64 {
		net := rack(10)
		d := transport.NewDriver(net, factory)
		spec := workload.Spec{
			Pattern:     workload.AllToAll{Hosts: workload.HostRange(0, 10)},
			Sizes:       workload.UniformSize{Min: 100_000, Max: 500_000},
			Load:        0.5,
			Reference:   10 * netem.Gbps,
			NumFlows:    300,
			DeadlineMin: 5 * sim.Millisecond,
			DeadlineMax: 25 * sim.Millisecond,
		}
		d.Schedule(spec.Generate(sim.NewRand(3), 1))
		s, err := d.Run(sim.Time(30 * sim.Second))
		if err != nil {
			t.Fatal(err)
		}
		return s.AppThroughput
	}
	d2 := run(dctcp.NewD2TCP(dctcp.DefaultConfig()))
	dc := run(dctcp.New(dctcp.DefaultConfig()))
	if d2 < dc-0.02 {
		t.Fatalf("D2TCP app throughput %v should be >= DCTCP %v", d2, dc)
	}
}
