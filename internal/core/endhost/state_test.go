package endhost

// White-box tests of the Algorithm 2 state machine: criterion keys,
// window application per queue class, the reorder guard, and probe
// mode. A minimal single-rack fabric supplies real Senders.

import (
	"testing"

	"pase/internal/core/arbitration"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/workload"
)

type rig struct {
	eng *sim.Engine
	net *topology.Network
	d   *transport.Driver
	sys *arbitration.System
	t   *Transport
}

func newRig(tb testing.TB, cfg Config) *rig {
	tb.Helper()
	eng := sim.NewEngine()
	net := topology.Build(eng, topology.SingleRack(4, func(topology.QueueKind) netem.Queue {
		return netem.NewPrio(8, 500, 65)
	}))
	d := transport.NewDriver(net, nil)
	p := arbitration.DefaultParams()
	p.Epoch = 100 * sim.Microsecond
	sys := arbitration.NewSystem(net, p)
	t := Attach(d, sys, cfg)
	return &rig{eng: eng, net: net, d: d, sys: sys, t: t}
}

// startFlow launches one flow and returns its sender and control.
func (r *rig) startFlow(tb testing.TB, spec workload.FlowSpec) (*transport.Sender, *control) {
	tb.Helper()
	s := r.d.Stack(spec.Src).StartFlow(spec)
	c, ok := s.Control().(*control)
	if !ok {
		tb.Fatal("sender not carrying a PASE control")
	}
	return s, c
}

func TestCriterionKeyRanges(t *testing.T) {
	r := newRig(t, DefaultConfig())
	sDeadline, cDeadline := r.startFlow(t, workload.FlowSpec{
		ID: 1, Src: 0, Dst: 1, Size: 10_000, Deadline: sim.Time(20 * sim.Millisecond)})
	sTask, cTask := r.startFlow(t, workload.FlowSpec{
		ID: 2, Src: 0, Dst: 1, Size: 10_000, Task: 7})
	sSize, cSize := r.startFlow(t, workload.FlowSpec{
		ID: 3, Src: 0, Dst: 1, Size: 10_000})

	kd := cDeadline.key(sDeadline)
	kt := cTask.key(sTask)
	ks := cSize.key(sSize)
	// Without TaskAware, the task flow is ranked by size.
	if kt != ks {
		t.Fatalf("task flow should use size key unless TaskAware (task=%d size=%d)", kt, ks)
	}
	if !(kd < ks) {
		t.Fatalf("deadline key %d must precede size key %d", kd, ks)
	}

	cfg := DefaultConfig()
	cfg.TaskAware = true
	r2 := newRig(t, cfg)
	sT2, cT2 := r2.startFlow(t, workload.FlowSpec{ID: 2, Src: 0, Dst: 1, Size: 10_000, Task: 7})
	sS2, cS2 := r2.startFlow(t, workload.FlowSpec{ID: 3, Src: 0, Dst: 1, Size: 10_000})
	sD2, cD2 := r2.startFlow(t, workload.FlowSpec{
		ID: 4, Src: 0, Dst: 1, Size: 10_000, Deadline: sim.Time(20 * sim.Millisecond)})
	kT := cT2.key(sT2)
	kS := cS2.key(sS2)
	kD := cD2.key(sD2)
	if !(kD < kT && kT < kS) {
		t.Fatalf("want deadline < task < size, got %d %d %d", kD, kT, kS)
	}
}

func TestFlowHeldUntilArbitrationReady(t *testing.T) {
	r := newRig(t, DefaultConfig())
	s, c := r.startFlow(t, workload.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 50_000})
	// Arbitration responses are scheduled (same-instant events for the
	// local half) but have not run yet.
	if !s.Hold || c.started {
		t.Fatal("flow must hold until the source half answers")
	}
	if err := r.eng.RunUntil(sim.Time(50 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if s.Hold && !c.probeMode {
		t.Fatal("flow should be released after local arbitration")
	}
	if !c.started {
		t.Fatal("control should have started")
	}
	if c.activePrio != 0 {
		t.Fatalf("lone flow should sit in the top queue, got %d", c.activePrio)
	}
	if s.Cwnd < 2 {
		t.Fatalf("top-queue window should be Rref-sized, got %v", s.Cwnd)
	}
}

func TestMinRTOPerQueue(t *testing.T) {
	r := newRig(t, DefaultConfig())
	s, c := r.startFlow(t, workload.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 50_000})
	c.activePrio = 0
	if got := c.MinRTO(s); got != 10*sim.Millisecond {
		t.Fatalf("top-queue minRTO = %v", got)
	}
	c.activePrio = 3
	if got := c.MinRTO(s); got != 200*sim.Millisecond {
		t.Fatalf("low-queue minRTO = %v", got)
	}
}

func TestProbeModeEntersAndLeaves(t *testing.T) {
	r := newRig(t, DefaultConfig())
	s, c := r.startFlow(t, workload.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 500_000})
	if err := r.eng.RunUntil(sim.Time(100 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	// Force the bottom queue: probe mode must hold data and schedule
	// probes.
	c.adopt(s, c.bottomQueue())
	c.applyWindow(s)
	c.updateHold(s)
	if !c.probeMode || !s.Hold {
		t.Fatal("bottom queue with probing must enter probe mode")
	}
	// Promotion back to the top leaves probe mode.
	c.adopt(s, 0)
	c.applyWindow(s)
	c.updateHold(s)
	if c.probeMode || s.Hold {
		t.Fatal("top queue must leave probe mode")
	}
}

func TestProbeModeDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Probing = false
	r := newRig(t, cfg)
	s, c := r.startFlow(t, workload.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 500_000})
	if err := r.eng.RunUntil(sim.Time(100 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	c.adopt(s, c.bottomQueue())
	c.updateHold(s)
	if c.probeMode || s.Hold {
		t.Fatal("probing disabled: bottom-queue flows keep sending data")
	}
}

func TestReorderGuardDefersPromotion(t *testing.T) {
	r := newRig(t, DefaultConfig())
	s, c := r.startFlow(t, workload.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 500_000})
	if err := r.eng.RunUntil(sim.Time(100 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	// Demote, then simulate an arbitration promotion while packets are
	// in flight: the guard must hold until the pipe drains.
	c.adopt(s, 2)
	c.applyWindow(s)
	c.updateHold(s)
	if s.Inflight() == 0 {
		t.Fatal("test needs in-flight packets")
	}
	c.targetPrio = 0
	if 0 < c.activePrio && s.Inflight() > 0 {
		c.guarding = true
		c.updateHold(s)
	}
	if !s.Hold {
		t.Fatal("guard must hold transmission")
	}
	// settle() releases and adopts the target.
	c.settle(s)
	if c.activePrio != 0 || c.guarding || s.Hold {
		t.Fatalf("settle should adopt target: prio=%d guarding=%v hold=%v",
			c.activePrio, c.guarding, s.Hold)
	}
}

func TestRrefWindowFloorsAtOnePacket(t *testing.T) {
	r := newRig(t, DefaultConfig())
	s, c := r.startFlow(t, workload.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 50_000})
	c.rref = netem.BitRate(1000) // absurdly small reference rate
	if w := c.rrefWindow(s); w != 1 {
		t.Fatalf("window floor = %v, want 1", w)
	}
	c.rref = netem.Gbps
	if w := c.rrefWindow(s); w < 5 {
		t.Fatalf("line-rate window = %v, want ≈BDP", w)
	}
}

func TestShutdownReleasesAndStops(t *testing.T) {
	r := newRig(t, DefaultConfig())
	s, c := r.startFlow(t, workload.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 20_000})
	if err := r.eng.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !s.Done {
		t.Fatal("flow should finish")
	}
	if !c.stopped {
		t.Fatal("control must shut down with the flow")
	}
	// Arbitrators must be clean.
	for _, l := range r.net.Links {
		if r.sys.Arbitrator(l.ID).Flows() != 0 {
			t.Fatal("arbitration state leaked")
		}
	}
	_ = pkt.MTU
}

// deafFabric loses every arbitration request, so a flow never hears
// from the control plane.
type deafFabric struct{}

func (deafFabric) DropRequest() bool            { return true }
func (deafFabric) DropResponse() bool           { return false }
func (deafFabric) CtrlExtraDelay() sim.Duration { return 0 }

// TestRefreshTimerAllocFree: a flow still waiting for its first grant
// (every request lost, fallback off) does nothing but fire and re-arm
// its refresh timer — retry bookkeeping, key and demand from the base
// RTT, the refresh itself. Once the calendar is warm that allocates
// nothing.
func TestRefreshTimerAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	net := topology.Build(eng, topology.Baseline(func(topology.QueueKind) netem.Queue {
		return netem.NewPrio(8, 500, 65)
	}))
	d := transport.NewDriver(net, nil)
	sys := arbitration.NewSystem(net, arbitration.DefaultParams())
	sys.Faults = deafFabric{}
	cfg := DefaultConfig()
	cfg.FallbackAfter = 0
	Attach(d, sys, cfg)
	s := d.Stack(0).StartFlow(workload.FlowSpec{ID: 1, Src: 0, Dst: 159, Size: 1 << 20})
	c := s.Control().(*control)

	tick := func() {
		if err := eng.RunUntil(eng.Now().Add(retryCap)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		tick()
	}
	before := sys.Stats.Refreshes
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Errorf("a refresh-timer firing allocates %.0f objects, want 0", n)
	}
	if fired := sys.Stats.Refreshes - before; fired < 100 || c.started || !c.refreshTimer.Pending() {
		t.Fatalf("%d refreshes in 101 retry periods (started=%v): the timer is not what was measured", fired, c.started)
	}
}

// TestFallbackTimeoutHalvesSSThresh: a flow that gave up on a silent
// control plane runs DCTCP's law, and DCTCP halves its slow-start
// threshold on a timeout before restarting from one segment — or the
// flow slow-starts straight back to a stale threshold.
func TestFallbackTimeoutHalvesSSThresh(t *testing.T) {
	r := newRig(t, DefaultConfig())
	s, c := r.startFlow(t, workload.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 1 << 30})
	if err := r.eng.RunUntil(sim.Time(100 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if !c.started || c.fallback {
		t.Fatalf("flow should run on its grant first (started=%v fallback=%v)", c.started, c.fallback)
	}
	// The rig's arbitration is all rack-local, which control faults
	// never drop, so silence the control plane at the flow: answers
	// still come, but the flow no longer hears them.
	c.client.OnUpdate = nil
	if err := r.eng.RunUntil(r.eng.Now().Add(r.t.Cfg.FallbackAfter + 2*retryCap)); err != nil {
		t.Fatal(err)
	}
	if !c.fallback {
		t.Fatalf("flow should have fallen back after %d unanswered refreshes", c.misses)
	}
	before := s.Cwnd
	if c.OnTimeout(s) {
		t.Fatal("a fallback flow retransmits on a timeout; it does not probe")
	}
	if want := max(before/2, 2); s.SSThresh != want || s.Cwnd != 1 {
		t.Fatalf("timeout at cwnd %v left ssthresh=%v cwnd=%v, want %v and 1", before, s.SSThresh, s.Cwnd, want)
	}
}
