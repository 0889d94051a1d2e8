package pdq

import (
	"math"
	"testing"

	"pase/internal/check"
	"pase/internal/core/arbitration"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/workload"
)

func rack(n int) (*topology.Network, *transport.Driver, *System) {
	return rackOn(sim.NewEngine(), n, false)
}

// newArb is one link's allocator as Attach builds it, on a 1 Gbps
// link with a clock that never moves.
func newArb() *arbitration.Arbitrator {
	return arbitration.NewArbitrator(0, netem.Gbps, 2, 0, 0, func() sim.Time { return 0 })
}

// grant syncs one flow wanting the whole link with a as control.sync
// does.
func grant(a *arbitration.Arbitrator, flow pkt.FlowID, remaining int64, deadline sim.Time, rtt sim.Duration) netem.BitRate {
	key := int64(deadline)
	if key == 0 {
		key = math.MaxInt64
	}
	return a.Grant(flow, key, remaining, netem.Gbps, sim.Duration(earlyStartRTTs*float64(rtt)))
}

func TestAllocatorSJFOrdering(t *testing.T) {
	a := newArb()
	// A 1 ns RTT isolates the greedy allocation: no drain fits in the
	// Early Start horizon.
	rtt := sim.Nanosecond
	grant(a, 1, 1_000_000, 0, rtt)
	grant(a, 2, 10_000, 0, rtt)
	// Flow 2 is shorter: it should now hold the full link and flow 1
	// be paused.
	if got := grant(a, 2, 10_000, 0, rtt); got != netem.Gbps {
		t.Fatalf("short flow granted %v, want full rate", got)
	}
	if got := grant(a, 1, 1_000_000, 0, rtt); got != 0 {
		t.Fatalf("long flow granted %v, want paused", got)
	}
}

func TestAllocatorEDFBeatsSJF(t *testing.T) {
	a := newArb()
	rtt := sim.Nanosecond // no Early Start, as above
	// Larger flow but with a deadline must precede a shorter flow
	// without one.
	grant(a, 1, 1_000_000, sim.Time(5*sim.Millisecond), rtt)
	grant(a, 2, 10_000, 0, rtt)
	if got := grant(a, 1, 1_000_000, sim.Time(5*sim.Millisecond), rtt); got != netem.Gbps {
		t.Fatalf("deadline flow granted %v, want full rate", got)
	}
}

func TestAllocatorEarlyStart(t *testing.T) {
	a := newArb() // earlyStartRTTs = 2
	rtt := 100 * sim.Microsecond
	// Top flow has only ~1 packet left: drains in ~12µs < 2 RTTs, so
	// the next flow should be granted too (Early Start).
	grant(a, 1, 1500, 0, rtt)
	if got := grant(a, 2, 1_000_000, 0, rtt); got != netem.Gbps {
		t.Fatalf("early-start flow granted %v, want full rate", got)
	}
}

func TestAllocatorRemove(t *testing.T) {
	a := newArb()
	rtt := 100 * sim.Microsecond
	grant(a, 1, 1_000_000, 0, rtt)
	grant(a, 2, 2_000_000, 0, rtt)
	if a.Flows() != 2 {
		t.Fatalf("flows = %d", a.Flows())
	}
	a.Remove(1)
	if a.Flows() != 1 {
		t.Fatalf("flows after remove = %d", a.Flows())
	}
	if got := grant(a, 2, 2_000_000, 0, rtt); got != netem.Gbps {
		t.Fatalf("surviving flow granted %v, want full rate", got)
	}
}

func TestSingleFlowStartsAfterOneRTT(t *testing.T) {
	_, d, _ := rack(2)
	d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: 150_000, Start: 0}})
	s, err := d.Run(sim.Time(sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 1 {
		t.Fatal("flow did not complete")
	}
	// ~1 RTT arbitration + ~1.2ms transfer; fast convergence, no ramp.
	if s.AFCT > 2500*sim.Microsecond {
		t.Fatalf("PDQ lone flow FCT = %v", s.AFCT)
	}
}

func TestPreemptionShortFirst(t *testing.T) {
	// Long flow running; short flow arrives at the same bottleneck.
	// PDQ pauses the long one; the short one finishes quickly, then
	// the long one resumes (with ~RTT switching overhead).
	_, d, _ := rack(4)
	d.Schedule([]workload.FlowSpec{
		{ID: 1, Src: 0, Dst: 2, Size: 2_000_000, Start: 0},
		{ID: 2, Src: 1, Dst: 2, Size: 50_000, Start: sim.Time(3 * sim.Millisecond)},
	})
	s, err := d.Run(sim.Time(2 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 2 {
		t.Fatalf("completed = %d, want 2", s.Completed)
	}
	var shortFCT, longFCT sim.Duration
	for _, r := range d.Collector.Records() {
		if r.ID == 2 {
			shortFCT = r.FCT()
		} else {
			longFCT = r.FCT()
		}
	}
	// Short: ~0.4ms tx + ~2 RTT signalling; must be well under 2ms.
	if shortFCT > 2*sim.Millisecond {
		t.Fatalf("short FCT = %v under PDQ preemption", shortFCT)
	}
	// Long: 16ms line-rate + preemption pause (~short's runtime) +
	// switching overhead; anything above 25ms means resume failed.
	if longFCT > 25*sim.Millisecond {
		t.Fatalf("long FCT = %v, resume after preemption broken", longFCT)
	}
}

// TestEarlyTerminationKillsDoomedFlow runs on a plain and on a checked
// engine: the doomed flow is killed inside its own header exchange, and
// a checked engine retires its sender at once, so nothing after the
// kill may touch it.
func TestEarlyTerminationKillsDoomedFlow(t *testing.T) {
	for _, checked := range []bool{false, true} {
		eng := sim.NewEngine()
		if checked {
			eng.AttachCheck(check.New(func() int64 { return int64(eng.Now()) }))
		}
		_, d, _ := rackOn(eng, 4, true)
		// 2 MB needs 16ms at line rate; 5ms deadline is impossible.
		d.Schedule([]workload.FlowSpec{
			{ID: 1, Src: 0, Dst: 1, Size: 2_000_000, Start: 0, Deadline: sim.Time(5 * sim.Millisecond)},
			{ID: 2, Src: 2, Dst: 3, Size: 50_000, Start: 0, Deadline: sim.Time(20 * sim.Millisecond)},
		})
		s, err := d.Run(sim.Time(sim.Second))
		if err != nil {
			t.Fatal(err)
		}
		if s.Completed != 1 {
			t.Fatalf("checked=%v: completed = %d: doomed flow should be killed, feasible one finish", checked, s.Completed)
		}
		if s.AppThroughput != 0.5 {
			t.Fatalf("checked=%v: app throughput = %v, want 0.5", checked, s.AppThroughput)
		}
	}
}

func rackOn(eng *sim.Engine, n int, earlyTermination bool) (*topology.Network, *transport.Driver, *System) {
	net := topology.Build(eng, topology.SingleRack(n, func(topology.QueueKind) netem.Queue {
		return netem.NewDropTail(225)
	}))
	d := transport.NewDriver(net, nil)
	sys := Attach(d, earlyTermination)
	return net, d, sys
}

func TestSyncMessageAccounting(t *testing.T) {
	_, d, sys := rack(4)
	d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: 150_000, Start: 0}})
	if _, err := d.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if sys.SyncMessages == 0 {
		t.Fatal("PDQ should count header exchanges")
	}
	_ = pkt.MTU
}

func TestManyFlowsComplete(t *testing.T) {
	_, d, _ := rack(10)
	spec := workload.Spec{
		Pattern:   workload.AllToAll{Hosts: workload.HostRange(0, 10)},
		Sizes:     workload.UniformSize{Min: 2_000, Max: 198_000},
		Load:      0.6,
		Reference: 10 * netem.Gbps,
		NumFlows:  300,
	}
	d.Schedule(spec.Generate(sim.NewRand(13), 1))
	s, err := d.Run(sim.Time(60 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 300 {
		t.Fatalf("completed = %d, want 300", s.Completed)
	}
}

// TestSyncAllocFree: once a flow runs, a sync — the header exchange
// with every arbitrator on its path and the publish and apply half an
// RTT apart — allocates nothing.
func TestSyncAllocFree(t *testing.T) {
	net, d, sys := rack(4)
	s := d.Stack(0).StartFlow(workload.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 1 << 30})
	tick := func() {
		if err := net.Eng.RunUntil(net.Eng.Now().Add(s.RTT())); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		tick()
	}
	before := sys.SyncMessages
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Errorf("an RTT of a running PDQ flow allocates %.1f objects, want 0", n)
	}
	if synced := sys.SyncMessages - before; synced < 100 || s.Rate == 0 {
		t.Fatalf("%d header exchanges in 101 RTTs at rate %v: the sync is not what was measured", synced, s.Rate)
	}
}
