package dctcp_test

import (
	"testing"

	"pase/internal/netem"
	"pase/internal/sim"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
	"pase/internal/workload"
)

// shortVsLong runs a short flow against an already-running long flow
// on a shared downlink and returns the short flow's FCT.
func shortVsLong(t *testing.T, factory func(*transport.Sender) transport.Control) sim.Duration {
	t.Helper()
	net := rack(4)
	d := transport.NewDriver(net, factory)
	d.Schedule([]workload.FlowSpec{
		{ID: 1, Src: 0, Dst: 2, Size: 1 << 30, Start: 0, Background: true},
		{ID: 2, Src: 1, Dst: 2, Size: 50_000, Start: sim.Time(20 * sim.Millisecond)},
	})
	s, err := d.Run(sim.Time(2 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 1 {
		t.Fatalf("short flow did not complete")
	}
	return s.AFCT
}

func TestShortFlowBeatsDCTCPAgainstLongFlow(t *testing.T) {
	l2 := shortVsLong(t, dctcp.NewL2DCT(dctcp.DefaultConfig()))
	dc := shortVsLong(t, dctcp.New(dctcp.DefaultConfig()))
	// L2DCT's size-aware weights must help the short flow; allow a
	// small tolerance for scheduling noise but require improvement.
	if float64(l2) > float64(dc)*1.02 {
		t.Fatalf("L2DCT short FCT %v should beat DCTCP's %v", l2, dc)
	}
}

func TestAllFlowsCompleteUnderLoad(t *testing.T) {
	net := rack(10)
	d := transport.NewDriver(net, dctcp.NewL2DCT(dctcp.DefaultConfig()))
	spec := workload.Spec{
		Pattern:         workload.AllToAll{Hosts: workload.HostRange(0, 10)},
		Sizes:           workload.UniformSize{Min: 2_000, Max: 198_000},
		Load:            0.6,
		Reference:       10 * netem.Gbps,
		NumFlows:        300,
		BackgroundFlows: 2,
	}
	d.Schedule(spec.Generate(sim.NewRand(5), 1))
	s, err := d.Run(sim.Time(30 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 300 {
		t.Fatalf("completed = %d, want 300", s.Completed)
	}
}

func TestWeightedSlowStartFasterForNewFlows(t *testing.T) {
	// A lone short L2DCT flow should finish at least as fast as under
	// DCTCP thanks to the weighted (2.5x) ramp.
	run := func(factory func(*transport.Sender) transport.Control) sim.Duration {
		net := rack(2)
		d := transport.NewDriver(net, factory)
		d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: 150_000, Start: 0}})
		s, err := d.Run(sim.Time(sim.Second))
		if err != nil {
			t.Fatal(err)
		}
		return s.AFCT
	}
	l2 := run(dctcp.NewL2DCT(dctcp.DefaultConfig()))
	dc := run(dctcp.New(dctcp.DefaultConfig()))
	if float64(l2) > float64(dc)*1.05 {
		t.Fatalf("lone L2DCT flow %v should not be slower than DCTCP %v", l2, dc)
	}
}
