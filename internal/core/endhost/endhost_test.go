package endhost_test

import (
	"testing"

	"pase/internal/core/arbitration"
	"pase/internal/core/endhost"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
	"pase/internal/workload"
)

func prioQ(topology.QueueKind) netem.Queue { return netem.NewPrio(8, 500, 65) }

// paseRack builds a single-rack PASE setup.
func paseRack(n int, modP func(*arbitration.Params), modC func(*endhost.Config)) (*transport.Driver, *arbitration.System) {
	eng := sim.NewEngine()
	net := topology.Build(eng, topology.SingleRack(n, prioQ))
	d := transport.NewDriver(net, nil)
	p := arbitration.DefaultParams()
	p.Epoch = 100 * sim.Microsecond // intra-rack RTT
	if modP != nil {
		modP(&p)
	}
	cfg := endhost.DefaultConfig()
	if modC != nil {
		modC(&cfg)
	}
	sys := arbitration.NewSystem(net, p)
	endhost.Attach(d, sys, cfg)
	return d, sys
}

func TestLoneFlowGuidedStart(t *testing.T) {
	d, _ := paseRack(2, nil, nil)
	d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: 150_000, Start: 0}})
	s, err := d.Run(sim.Time(sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 1 {
		t.Fatal("flow did not complete")
	}
	// Reference-rate start: no slow-start ramp. 150KB at 1Gbps ≈
	// 1.2ms + RTT + arbitration (local, ≈0).
	if s.AFCT > 2*sim.Millisecond {
		t.Fatalf("PASE lone flow FCT = %v, want < 2ms", s.AFCT)
	}
}

func TestShortFlowPreemptsLong(t *testing.T) {
	// Strict priority via queues: a short flow against a long
	// background flow must finish near its unloaded FCT.
	d, _ := paseRack(4, nil, nil)
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
	if s.AFCT > 1500*sim.Microsecond {
		t.Fatalf("short flow FCT = %v, want near-unloaded (<1.5ms)", s.AFCT)
	}
}

func TestSJFOrderingAcrossFlows(t *testing.T) {
	// Three flows to one receiver, sizes 50/500/2000 KB started
	// together: completion order must follow size.
	d, _ := paseRack(5, nil, nil)
	d.Schedule([]workload.FlowSpec{
		{ID: 1, Src: 0, Dst: 4, Size: 2_000_000, Start: 0},
		{ID: 2, Src: 1, Dst: 4, Size: 500_000, Start: 0},
		{ID: 3, Src: 2, Dst: 4, Size: 50_000, Start: 0},
	})
	s, err := d.Run(sim.Time(5 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 3 {
		t.Fatalf("completed = %d, want 3", s.Completed)
	}
	fct := map[uint64]sim.Duration{}
	for _, r := range d.Collector.Records() {
		fct[r.ID] = r.FCT()
	}
	if !(fct[3] < fct[2] && fct[2] < fct[1]) {
		t.Fatalf("SJF order violated: %v", fct)
	}
	// The shortest flow should be barely affected by the others.
	if fct[3] > 2*sim.Millisecond {
		t.Fatalf("shortest flow FCT = %v", fct[3])
	}
}

func TestDeadlineEDF(t *testing.T) {
	// Same-size flows, different deadlines: the earlier deadline must
	// finish first and both should meet their deadlines.
	d, _ := paseRack(4, nil, nil)
	d.Schedule([]workload.FlowSpec{
		{ID: 1, Src: 0, Dst: 2, Size: 500_000, Start: 0, Deadline: sim.Time(50 * sim.Millisecond)},
		{ID: 2, Src: 1, Dst: 2, Size: 500_000, Start: 0, Deadline: sim.Time(10 * sim.Millisecond)},
	})
	s, err := d.Run(sim.Time(sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 2 {
		t.Fatalf("completed = %d", s.Completed)
	}
	fct := map[uint64]sim.Duration{}
	for _, r := range d.Collector.Records() {
		fct[r.ID] = r.FCT()
	}
	if fct[2] >= fct[1] {
		t.Fatalf("EDF violated: tight %v vs loose %v", fct[2], fct[1])
	}
	if s.AppThroughput != 1 {
		t.Fatalf("deadlines met = %v, want 1.0", s.AppThroughput)
	}
}

func TestLoadedAllToAllCompletes(t *testing.T) {
	d, sys := paseRack(10, nil, nil)
	spec := workload.Spec{
		Pattern:         workload.AllToAll{Hosts: workload.HostRange(0, 10)},
		Sizes:           workload.UniformSize{Min: 2_000, Max: 198_000},
		Load:            0.7,
		Reference:       10 * netem.Gbps,
		NumFlows:        400,
		BackgroundFlows: 2,
	}
	d.Schedule(spec.Generate(sim.NewRand(21), 1))
	s, err := d.Run(sim.Time(60 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 400 {
		t.Fatalf("completed = %d, want 400", s.Completed)
	}
	if sys.Stats.Refreshes == 0 {
		t.Fatal("arbitration refreshes not happening")
	}
}

func TestInterRackViaFabric(t *testing.T) {
	eng := sim.NewEngine()
	net := topology.Build(eng, topology.Baseline(prioQ))
	d := transport.NewDriver(net, nil)
	sys := arbitration.NewSystem(net, arbitration.DefaultParams())
	endhost.Attach(d, sys, endhost.DefaultConfig())
	d.Schedule([]workload.FlowSpec{
		{ID: 1, Src: 0, Dst: 159, Size: 200_000, Start: 0}, // cross-core
		{ID: 2, Src: 1, Dst: 41, Size: 200_000, Start: 0},  // same agg
	})
	s, err := d.Run(sim.Time(5 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 2 {
		t.Fatalf("completed = %d, want 2", s.Completed)
	}
	if s.AFCT > 5*sim.Millisecond {
		t.Fatalf("inter-rack AFCT = %v", s.AFCT)
	}
	if sys.Stats.Messages == 0 {
		t.Fatal("inter-rack flows must generate control messages")
	}
}

func TestPASEBeatsDCTCPShortAgainstLong(t *testing.T) {
	short := func(attach func(d *transport.Driver)) sim.Duration {
		eng := sim.NewEngine()
		net := topology.Build(eng, topology.SingleRack(4, prioQ))
		d := transport.NewDriver(net, nil)
		attach(d)
		d.Schedule([]workload.FlowSpec{
			{ID: 1, Src: 0, Dst: 2, Size: 1 << 30, Start: 0, Background: true},
			{ID: 2, Src: 1, Dst: 2, Size: 50_000, Start: sim.Time(20 * sim.Millisecond)},
		})
		s, err := d.Run(sim.Time(2 * sim.Second))
		if err != nil || s.Completed != 1 {
			t.Fatalf("run failed: %v %+v", err, s)
		}
		return s.AFCT
	}
	pase := short(func(d *transport.Driver) {
		p := arbitration.DefaultParams()
		p.Epoch = 100 * sim.Microsecond
		endhost.Attach(d, arbitration.NewSystem(d.Net, p), endhost.DefaultConfig())
	})
	dc := short(func(d *transport.Driver) {
		for _, st := range d.Stacks {
			st.NewControl = dctcp.New(dctcp.DefaultConfig())
		}
	})
	if float64(pase) > 0.8*float64(dc) {
		t.Fatalf("PASE short flow %v should clearly beat DCTCP %v", pase, dc)
	}
}

func TestPASEDCTCPAblationSlower(t *testing.T) {
	// Figure 13a: disabling the reference rate (PASE-DCTCP) costs
	// performance for fresh flows.
	run := func(useRef bool) sim.Duration {
		d, _ := paseRack(6, nil, func(c *endhost.Config) { c.UseRefRate = useRef })
		spec := workload.Spec{
			Pattern:   workload.AllToAll{Hosts: workload.HostRange(0, 6)},
			Sizes:     workload.UniformSize{Min: 100_000, Max: 500_000},
			Load:      0.5,
			Reference: 6 * netem.Gbps,
			NumFlows:  150,
		}
		d.Schedule(spec.Generate(sim.NewRand(33), 1))
		s, err := d.Run(sim.Time(30 * sim.Second))
		if err != nil || s.Completed != 150 {
			t.Fatalf("run failed: %v %+v", err, s)
		}
		return s.AFCT
	}
	withRef := run(true)
	without := run(false)
	if float64(withRef) > float64(without)*1.02 {
		t.Fatalf("reference rate should help: with=%v without=%v", withRef, without)
	}
}

func TestProbingToggleBothComplete(t *testing.T) {
	for _, probing := range []bool{true, false} {
		d, _ := paseRack(8, nil, func(c *endhost.Config) { c.Probing = probing })
		spec := workload.Spec{
			Pattern:   workload.AllToAll{Hosts: workload.HostRange(0, 8)},
			Sizes:     workload.UniformSize{Min: 2_000, Max: 198_000},
			Load:      0.8,
			Reference: 8 * netem.Gbps,
			NumFlows:  200,
		}
		d.Schedule(spec.Generate(sim.NewRand(5), 1))
		s, err := d.Run(sim.Time(60 * sim.Second))
		if err != nil {
			t.Fatal(err)
		}
		if s.Completed != 200 {
			t.Fatalf("probing=%v: completed = %d, want 200", probing, s.Completed)
		}
	}
}

// TestReorderGuardAllFlowsComplete: with promotions deferred until a
// flow's in-flight packets drain, a loaded all-to-all rack still
// completes every flow.
func TestReorderGuardAllFlowsComplete(t *testing.T) {
	d, _ := paseRack(8, nil, nil)
	spec := workload.Spec{
		Pattern:   workload.AllToAll{Hosts: workload.HostRange(0, 8)},
		Sizes:     workload.UniformSize{Min: 2_000, Max: 198_000},
		Load:      0.6,
		Reference: 8 * netem.Gbps,
		NumFlows:  150,
	}
	d.Schedule(spec.Generate(sim.NewRand(6), 1))
	s, err := d.Run(sim.Time(60 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 150 {
		t.Fatalf("completed = %d, want 150", s.Completed)
	}
}

func TestArbitrationStateDrainsAfterRun(t *testing.T) {
	d, sys := paseRack(6, nil, nil)
	spec := workload.Spec{
		Pattern:   workload.AllToAll{Hosts: workload.HostRange(0, 6)},
		Sizes:     workload.UniformSize{Min: 2_000, Max: 50_000},
		Load:      0.3,
		Reference: 6 * netem.Gbps,
		NumFlows:  50,
	}
	d.Schedule(spec.Generate(sim.NewRand(9), 1))
	if _, err := d.Run(sim.Time(30 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	// Every completed flow released its arbitration entries.
	for _, l := range d.Net.Links {
		if n := sys.Arbitrator(l.ID).Flows(); n != 0 {
			t.Fatalf("link %v retains %d flows", l, n)
		}
	}
	_ = pkt.MTU
}
