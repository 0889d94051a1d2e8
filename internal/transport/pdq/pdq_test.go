package pdq

import (
	"math"
	"testing"

	"pase/internal/check"
	"pase/internal/core/arbitration"
	"pase/internal/netem"
	"pase/internal/obs"
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

// TestStalePhaseMissesTheNextLife: a PDQ control goes round with its
// sender record, so a publish or apply still on the calendar when a
// flow ends would land on the record's next flow. A 1-segment flow
// ends with its publish in flight, a 2-segment one with its apply, and
// the next flow starts on the same record at that instant. It must see
// no grant before its own first publish, half a base RTT out, and no
// rate set before its own first apply, a base RTT out — and then run
// exactly as the first flow did.
func TestStalePhaseMissesTheNextLife(t *testing.T) {
	for _, tc := range []struct {
		pending string
		segs    int64
	}{{"publish", 1}, {"apply", 2}} {
		t.Run(tc.pending, func(t *testing.T) {
			net, d, sys := rack(2)
			reg := obs.NewRegistry()
			d.InstrumentEach(func(pkt.NodeID) *obs.Registry { return reg })
			rates := func() int64 { return reg.Snapshot().Counters["transport/rate_updates"] }
			var inFlight string
			var ended *transport.Sender
			release := d.OnFlowDone
			d.OnFlowDone = func(s *transport.Sender) {
				if c := s.Control().(*control); ended == nil {
					ended = s
					switch {
					case c.publishTimer.Pending():
						inFlight = "publish"
					case c.applyTimer.Pending():
						inFlight = "apply"
					}
				}
				release(s)
			}
			spec := workload.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: tc.segs * pkt.MSS}
			d.Schedule([]workload.FlowSpec{spec})
			if sum, err := d.Run(sim.Time(sim.Second)); err != nil || sum.Completed != 1 {
				t.Fatalf("flow 1: %+v, %v", sum, err)
			}
			if inFlight != tc.pending {
				t.Fatalf("flow 1 ended with its %q in flight, want its %s", inFlight, tc.pending)
			}
			first := d.Collector.Records()[0]

			// Flow 2 starts on flow 1's record the instant flow 1 ended.
			start := net.Eng.Now()
			spec.ID, spec.Start = 2, start
			d.Prime(1)
			s := d.Stack(0).StartFlow(spec)
			if s != ended {
				t.Fatal("flow 2 did not start on flow 1's record: the test would prove nothing")
			}
			runTo := func(at sim.Time) {
				if err := net.Eng.RunUntil(at); err != nil {
					t.Fatal(err)
				}
			}
			synced, set := sys.SyncMessages, rates()
			runTo(start.Add(s.BaseRTT()/2 - 1))
			if sys.SyncMessages != synced {
				t.Fatalf("flow 2 synced with %d arbitrators before its own first publish", sys.SyncMessages-synced)
			}
			for _, a := range sys.arbs {
				if a.Flows() != 0 {
					t.Fatalf("arbitrator %d holds %d flows before flow 2's first publish", a.LinkID, a.Flows())
				}
			}
			runTo(start.Add(s.BaseRTT() - 1))
			if rates() != set {
				t.Fatalf("flow 2's rate was set %d times before its own first apply", rates()-set)
			}
			runTo(start.Add(sim.Duration(sim.Second)))
			recs := d.Collector.Records()
			if len(recs) != 2 || !recs[1].Done || recs[1].FCT() != first.FCT() {
				t.Fatalf("flow 2 on the recycled record: %+v, want flow 1's FCT %v", recs[1:], first.FCT())
			}
		})
	}
}

// TestControlGoesRoundUnlessChecked: two flows one after the other
// share one control, which the second starts over; a checked engine
// retires the first flow's sender, and its control with it.
func TestControlGoesRoundUnlessChecked(t *testing.T) {
	for _, checked := range []bool{false, true} {
		eng := sim.NewEngine()
		if checked {
			eng.AttachCheck(check.New(func() int64 { return int64(eng.Now()) }))
		}
		_, d, _ := rackOn(eng, 2, false)
		var made []transport.Control
		d.OnFlowStart = func(s *transport.Sender) { made = append(made, s.Control()) }
		d.Schedule([]workload.FlowSpec{
			{ID: 1, Src: 0, Dst: 1, Size: 10_000},
			{ID: 2, Src: 0, Dst: 1, Size: 10_000, Start: sim.Time(10 * sim.Millisecond)},
		})
		if sum, err := d.Run(sim.Time(sim.Second)); err != nil || sum.Completed != 2 {
			t.Fatalf("checked=%v: %+v, %v", checked, sum, err)
		}
		if reused := made[0] == made[1]; reused == checked {
			t.Fatalf("checked=%v: the second flow reused the first one's control: %v", checked, reused)
		}
	}
}

// TestLoneFlowClosedForm: a lone flow on an idle SingleRack(2) takes
// exact arithmetic. PDQ's form is one sync round trip — the publish
// half a base RTT out, the apply half an RTT later — then the segments
// at line rate, each leaving one serialization after the one before,
// the last crossing both hops and its ACK both hops back. Each row runs
// twice back to back on the same host pair, the second flow on the
// first one's sender and control, and both must take the row's time to
// the nanosecond.
func TestLoneFlowClosedForm(t *testing.T) {
	cfg := topology.SingleRack(2, nil)
	oneWay := func(size int32) sim.Duration { return 2 * (cfg.LinkDelay + cfg.EdgeRate.Serialize(size)) }
	syncRTT := 4 * cfg.LinkDelay // the base RTT: no sample exists before the first grant
	paced := func(size int64, r netem.BitRate) sim.Duration {
		var d sim.Duration
		last := pkt.DataPackets(size) - 1
		for seq := int32(0); seq < last; seq++ {
			d += r.Serialize(pkt.SegmentWireSize(size, seq))
		}
		return d + oneWay(pkt.SegmentWireSize(size, last)) + oneWay(pkt.HeaderSize)
	}
	for _, row := range []struct {
		name  string
		size  int64
		form  sim.Duration
		today sim.Duration // set only where the run disagrees with the form
		gap   string
	}{
		{"1-segment", pkt.MSS, syncRTT + paced(pkt.MSS, cfg.EdgeRate), 0, ""},
		{"10KB", 10_000, syncRTT + paced(10_000, cfg.EdgeRate),
			syncRTT + paced(10_000, netem.BitRate(float64(10_000*8)/syncRTT.Seconds())),
			"item 8: the flow asks for no more than its remaining bytes per RTT (demand), so a flow under one BDP is granted 800 Mbps, not the idle link"},
	} {
		t.Run(row.name, func(t *testing.T) {
			want := row.form
			if row.gap != "" {
				want = row.today
				t.Logf("%v against the form's %v: %s", want, row.form, row.gap)
			}
			_, d, _ := rack(2)
			var senders []*transport.Sender
			d.OnFlowStart = func(s *transport.Sender) { senders = append(senders, s) }
			d.Schedule([]workload.FlowSpec{
				{ID: 1, Src: 0, Dst: 1, Size: row.size},
				{ID: 2, Src: 0, Dst: 1, Size: row.size, Start: sim.Time(10 * sim.Millisecond)},
			})
			if sum, err := d.Run(sim.Time(sim.Second)); err != nil || sum.Completed != 2 {
				t.Fatalf("%+v, %v", sum, err)
			}
			if senders[0] != senders[1] {
				t.Fatal("the second flow did not run on the first one's records")
			}
			for _, r := range d.Collector.Records() {
				if r.FCT() != want {
					t.Errorf("flow %d took %v, want %v", r.ID, r.FCT(), want)
				}
			}
		})
	}
}
