package arbitration

import (
	"io"
	"testing"
	"testing/quick"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/trace"
)

func newArb(c netem.BitRate) (*sim.Engine, *Arbitrator) {
	eng := sim.NewEngine()
	a := NewArbitrator(0, c, 8, 40*netem.Mbps, 300*sim.Microsecond, eng.Now)
	return eng, a
}

// lookup returns a's cached decision for flow without refreshing it,
// after the recompute pass that may expire it.
func lookup(a *Arbitrator, flow pkt.FlowID) (Decision, bool) {
	a.maybeRecompute(a.clock())
	e, ok := a.entries[flow]
	if !ok {
		return Decision{}, false
	}
	return e.decision, true
}

func TestSingleFlowTopQueueFullRate(t *testing.T) {
	_, a := newArb(netem.Gbps)
	d := a.Update(1, 1000, netem.Gbps)
	if d.Queue != 0 || d.Rref != netem.Gbps {
		t.Fatalf("lone flow got %+v, want top queue at line rate", d)
	}
}

func TestDemandBelowSpare(t *testing.T) {
	_, a := newArb(netem.Gbps)
	d := a.Update(1, 1000, 200*netem.Mbps)
	if d.Queue != 0 || d.Rref != 200*netem.Mbps {
		t.Fatalf("got %+v, want top queue at demand", d)
	}
}

func TestSecondFlowGetsLeftover(t *testing.T) {
	_, a := newArb(netem.Gbps)
	a.Update(1, 1000, 600*netem.Mbps)
	d := a.Update(2, 2000, netem.Gbps)
	if d.Queue != 0 || d.Rref != 400*netem.Mbps {
		t.Fatalf("second flow got %+v, want top queue at 400Mbps", d)
	}
}

func TestSaturatedFlowsDropToLowerQueues(t *testing.T) {
	_, a := newArb(netem.Gbps)
	// Ten flows each demanding the full link, in key order: flow k
	// sees ADH = k × C and must map to 0-based queue min(k, 7).
	for i := 0; i < 10; i++ {
		a.Update(pkt.FlowID(i+1), int64(i), netem.Gbps)
	}
	for i := 0; i < 10; i++ {
		d, ok := lookup(a, pkt.FlowID(i+1))
		if !ok {
			t.Fatalf("flow %d missing", i+1)
		}
		want := int8(i)
		if i > 7 {
			want = 7
		}
		if d.Queue != want {
			t.Fatalf("flow %d queue = %d, want %d", i+1, d.Queue, want)
		}
		if i == 0 && d.Rref != netem.Gbps {
			t.Fatalf("top flow rref = %v", d.Rref)
		}
		if i > 0 && d.Rref != 40*netem.Mbps {
			t.Fatalf("queued flow %d rref = %v, want base rate", i+1, d.Rref)
		}
	}
}

func TestRemovePromotesSuccessor(t *testing.T) {
	_, a := newArb(netem.Gbps)
	a.Update(1, 10, netem.Gbps)
	a.Update(2, 20, netem.Gbps)
	if d, _ := lookup(a, 2); d.Queue != 1 {
		t.Fatalf("flow 2 should start in queue 1, got %d", d.Queue)
	}
	a.Remove(1)
	if d, _ := lookup(a, 2); d.Queue != 0 || d.Rref != netem.Gbps {
		t.Fatalf("after removal flow 2 got %+v, want top/line-rate", d)
	}
}

func TestLeaseExpiry(t *testing.T) {
	eng, a := newArb(netem.Gbps)
	a.Update(1, 10, netem.Gbps)
	a.Update(2, 20, netem.Gbps)
	// Advance past the lease (8 epochs) refreshing only flow 2.
	for i := 0; i < 12; i++ {
		eng.Schedule(300*sim.Microsecond, func() { a.Update(2, 20, netem.Gbps) })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if a.Flows() != 1 {
		t.Fatalf("flows = %d, want 1 (flow 1 lease-expired)", a.Flows())
	}
	if d, _ := lookup(a, 2); d.Queue != 0 {
		t.Fatalf("survivor queue = %d, want 0", d.Queue)
	}
}

func TestDeadlineKeyPrecedesSizeKey(t *testing.T) {
	_, a := newArb(netem.Gbps)
	// Key encoding puts deadlines (ns timestamps) below size+2^50.
	deadlineKey := int64(20 * sim.Millisecond)
	sizeKey := int64(2000) + (1 << 50)
	a.Update(1, sizeKey, netem.Gbps)
	d := a.Update(2, deadlineKey, netem.Gbps)
	if d.Queue != 0 {
		t.Fatalf("deadline flow queue = %d, want 0", d.Queue)
	}
	if d, _ := lookup(a, 1); d.Queue != 1 {
		t.Fatalf("size flow queue = %d, want 1", d.Queue)
	}
}

func TestSetCapacityRecomputes(t *testing.T) {
	_, a := newArb(netem.Gbps)
	a.Update(1, 10, 600*netem.Mbps)
	a.Update(2, 20, 600*netem.Mbps)
	if d, _ := lookup(a, 2); d.Queue != 0 {
		t.Fatalf("flow 2 queue = %d, want 0 (600+600 > C but ADH=600 < C)", d.Queue)
	}
	a.SetCapacity(500 * netem.Mbps)
	if d, _ := lookup(a, 2); d.Queue != 1 {
		t.Fatalf("after shrink flow 2 queue = %d, want 1", d.Queue)
	}
}

// Property: queues are monotone in key order and rref of the top flow
// never exceeds capacity or demand.
func TestArbitratorMonotonicity(t *testing.T) {
	f := func(demandsRaw []uint32) bool {
		if len(demandsRaw) == 0 || len(demandsRaw) > 64 {
			return true
		}
		_, a := newArb(netem.Gbps)
		for i, raw := range demandsRaw {
			demand := netem.BitRate(raw%1000+1) * netem.Mbps
			a.Update(pkt.FlowID(i+1), int64(i), demand)
		}
		prevQ := int8(0)
		for i := range demandsRaw {
			d, ok := lookup(a, pkt.FlowID(i+1))
			if !ok {
				return false
			}
			if d.Queue < prevQ {
				return false
			}
			prevQ = d.Queue
			if d.Rref > netem.Gbps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- System-level tests -------------------------------------------------

func prioQ(topology.QueueKind) netem.Queue { return netem.NewPrio(8, 500, 65) }

func buildSys(t *testing.T, p Params) (*sim.Engine, *topology.Network, *System) {
	t.Helper()
	eng := sim.NewEngine()
	net := topology.Build(eng, topology.Baseline(prioQ))
	return eng, net, NewSystem(net, p)
}

// climbLevel runs refresh with a fresh span recorder on sys and
// returns the Level of the control span it recorded (-1 for none).
func climbLevel(eng *sim.Engine, sys *System, refresh func()) int {
	sys.Rec = trace.NewRecorder(eng, trace.RecorderConfig{SpanWriter: io.Discard})
	refresh()
	rt, _ := sys.Rec.Take()
	ctrl := rt.Ctrl
	if len(ctrl) == 0 {
		return -1
	}
	return ctrl[len(ctrl)-1].Level
}

func TestClientIntraRackLocalOnlyMessages(t *testing.T) {
	eng, _, sys := buildSys(t, DefaultParams())
	c := sys.NewClient(1, 0, 1) // same rack
	c.Refresh(1000+(1<<50), netem.Gbps)
	if err := eng.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !c.Ready() {
		t.Fatal("intra-rack client should be ready immediately")
	}
	if sys.Stats.Messages != 0 {
		t.Fatalf("intra-rack arbitration sent %d messages, want 0", sys.Stats.Messages)
	}
	d := c.Combined()
	if d.Queue != 0 || d.Rref != netem.Gbps {
		t.Fatalf("combined = %+v", d)
	}
}

func TestClientCrossCoreDelegationMessages(t *testing.T) {
	p := DefaultParams()
	eng, _, sys := buildSys(t, p)
	c := sys.NewClient(1, 0, 159) // cross-core
	c.Refresh(1000+(1<<50), netem.Gbps)
	if err := eng.RunUntil(sim.Time(250 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	// Delegation: each half goes host->ToR and back = 2 messages, so 4
	// total (delegation share-refresh messages excluded by the horizon).
	if sys.Stats.Messages != 4 {
		t.Fatalf("messages = %d, want 4 with delegation", sys.Stats.Messages)
	}
	if !c.Ready() {
		t.Fatal("client should be ready after ToR response")
	}
}

func TestClientCrossCoreNoDelegationMessages(t *testing.T) {
	p := DefaultParams()
	p.Delegation = false
	eng, _, sys := buildSys(t, p)
	c := sys.NewClient(1, 0, 159)
	c.Refresh(1000+(1<<50), netem.Gbps)
	if err := eng.RunUntil(sim.Time(250 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	// Each half: host->ToR->agg and back = 4 messages; 8 total.
	if sys.Stats.Messages != 8 {
		t.Fatalf("messages = %d, want 8 without delegation", sys.Stats.Messages)
	}
}

func TestEarlyPruningStopsPropagation(t *testing.T) {
	p := DefaultParams()
	p.Delegation = false
	eng, _, sys := buildSys(t, p)
	// Saturate host 0's uplink arbitrator so later flows are pruned.
	// Host 0's uplink is its first up link.
	for i := 0; i < 20; i++ {
		c := sys.NewClient(pkt.FlowID(i+1), 0, 159)
		c.Refresh(int64(i)+(1<<50), netem.Gbps)
	}
	if err := eng.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if sys.Stats.Pruned == 0 {
		t.Fatal("expected some refreshes to be pruned at the host level")
	}
	// Pruned flows must still have a (local) decision.
	if sys.Stats.Messages >= 20*8 {
		t.Fatalf("messages = %d, pruning saved nothing", sys.Stats.Messages)
	}
}

// TestLocalOnlyNoMessages: a local-only refresh stops at the access
// link, so it and the release, which walks the same stops, send
// nothing — with delegation on or off.
func TestLocalOnlyNoMessages(t *testing.T) {
	for _, deleg := range []bool{true, false} {
		p := DefaultParams()
		p.LocalOnly = true
		p.Delegation = deleg
		eng, net, sys := buildSys(t, p)
		c := sys.NewClient(1, 0, 159)
		c.Refresh(1000+(1<<50), netem.Gbps)
		if err := eng.RunUntil(sim.Time(sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if !c.Ready() {
			t.Fatal("local-only client must be ready")
		}
		c.Release()
		if sys.Stats.Messages != 0 {
			t.Errorf("delegation=%v: local-only refresh and release sent %d messages, want 0", deleg, sys.Stats.Messages)
		}
		for _, l := range net.Links {
			if n := sys.Arbitrator(l.ID).Flows(); n != 0 {
				t.Errorf("delegation=%v: link %d holds %d flows after release", deleg, l.ID, n)
			}
		}
	}
}

func TestDelegatedShareTracksDemand(t *testing.T) {
	p := DefaultParams()
	eng, net, sys := buildSys(t, p)
	// Find the agg0->core up link.
	var aggCore *topology.Link
	for _, l := range net.Links {
		if l.Level == topology.LevelAggCore && l.Up && net.AggOf(0) == 0 && l.From == net.Aggs[0] {
			aggCore = l
			break
		}
	}
	if aggCore == nil {
		t.Fatal("agg-core link not found")
	}
	kids := sys.slices[aggCore.ID]
	if len(kids) != 2 {
		t.Fatalf("agg-core link has %d virtual arbitrators, want 2", len(kids))
	}
	va0, va1 := kids[0], kids[1] // racks 0 and 1

	// Only rack 0 has top-queue demand; after a share refresh its
	// slice should dominate.
	va0.Update(1, 100, 8*netem.Gbps)
	if err := eng.RunUntil(sim.Time(2 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if va0.Capacity() <= va1.Capacity() {
		t.Fatalf("rack0 slice %v should exceed idle rack1 slice %v", va0.Capacity(), va1.Capacity())
	}
	if va0.Capacity()+va1.Capacity() > 10*netem.Gbps+netem.Gbps {
		t.Fatalf("slices exceed physical capacity: %v + %v", va0.Capacity(), va1.Capacity())
	}
}

func TestReleaseRemovesEverywhere(t *testing.T) {
	p := DefaultParams()
	p.EarlyPruning = false
	eng, net, sys := buildSys(t, p)
	c := sys.NewClient(1, 0, 159)
	c.Refresh(1000+(1<<50), netem.Gbps)
	if err := eng.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	path, _ := net.AppendPath(nil, 0, 159, 1)
	if sys.Arbitrator(path[0].ID).Flows() != 1 {
		t.Fatal("flow not registered at host uplink")
	}
	c.Release()
	for _, l := range path {
		if a := sys.Arbitrator(l.ID); a.Flows() != 0 {
			t.Fatalf("link %v still has %d flows after release", l, a.Flows())
		}
	}
	// Double release is a no-op.
	c.Release()
}

// dropAll loses every control request.
type dropAll struct{}

func (dropAll) DropRequest() bool            { return true }
func (dropAll) DropResponse() bool           { return false }
func (dropAll) CtrlExtraDelay() sim.Duration { return 0 }

// TestLostReleaseCleansOnlyTheHost releases a cross-core flow whose
// release is lost. In the flat and hierarchy arms the source
// access-link arbitrator sits on the releasing host, so it alone is
// cleaned; in the central arm the controller holds every stop, that
// one included, so none is. No arm charges a lost release a message:
// the other entries wait for lease expiry.
func TestLostReleaseCleansOnlyTheHost(t *testing.T) {
	for _, tc := range []struct {
		arm string
		set func(*Params)
	}{
		{"flat", func(*Params) {}},
		{"deep-hierarchy", func(p *Params) { p.Hierarchy = HierarchyParams{FanOut: 2} }},
		{"central", func(p *Params) { p.Central = true }},
	} {
		t.Run(tc.arm, func(t *testing.T) {
			p := DefaultParams()
			p.EarlyPruning = false
			tc.set(&p)
			_, _, sys := buildSys(t, p)
			c := sys.NewClient(1, 0, 159) // cross-core
			c.Refresh(1000+(1<<50), netem.Gbps)
			holds := func(a *Arbitrator) bool { _, ok := a.entries[c.flow]; return ok }
			var stops []*Arbitrator
			for _, srcSide := range []bool{true, false} {
				for _, st := range c.stops(srcSide) {
					if !holds(st.arb) {
						t.Fatalf("arbitrator %d missed the refresh", st.arb.LinkID)
					}
					stops = append(stops, st.arb)
				}
			}
			host := sys.Arbitrator(c.upPath[0].ID)
			sys.Faults = dropAll{}
			msgs := sys.Stats.Messages
			c.Release()
			if sent := sys.Stats.Messages - msgs; sent != 0 {
				t.Errorf("lost release charged %d messages, want 0", sent)
			}
			for _, a := range stops {
				if want := p.Central || a != host; holds(a) != want {
					t.Errorf("arbitrator %d holds the flow = %v after a lost release, want %v", a.LinkID, holds(a), want)
				}
			}
		})
	}
}

func TestCombinedTakesWorstQueueAndMinRate(t *testing.T) {
	eng, _, sys := buildSys(t, DefaultParams())
	// Saturate the destination downlink with a higher-priority flow
	// from another sender.
	other := sys.NewClient(9, 2, 1)
	other.Refresh(1+(1<<50), netem.Gbps)
	c := sys.NewClient(1, 0, 1)
	c.Refresh(1000+(1<<50), netem.Gbps)
	if err := eng.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	d := c.Combined()
	// Uplink is free (queue 0) but the shared downlink has flow 9
	// ahead: combined queue must be > 0.
	if d.Queue == 0 {
		t.Fatalf("combined queue = 0, downlink contention ignored")
	}
}

// TestPruneSavedCountsAvoidedHops holds Stats.PruneSavedMsgs to the
// messages pruning avoided on a left-right fabric: two per hop between
// the depth a pruned climb reached and the depth its full climb ends
// at. Delegation serves the agg-core hop from the ToR's own slice, so
// with it on a left-right climb ends at depth 1, not 2.
func TestPruneSavedCountsAvoidedHops(t *testing.T) {
	for _, deleg := range []bool{true, false} {
		p := DefaultParams()
		p.Delegation = deleg
		eng, net, sys := buildSys(t, p)
		var want int64
		left := 2 * net.Cfg.HostsPerRack // racks 0 and 1 sit under agg 0
		for f := 1; f <= 160; f++ {
			src, dst := pkt.NodeID(f%8), pkt.NodeID(left+f%left)
			c := sys.NewClient(pkt.FlowID(f), src, dst)
			for _, srcSide := range []bool{true, false} {
				links := c.upPath
				if !srcSide {
					links = c.dstClimb
				}
				full := len(links) - 1
				if deleg && links[full].Level == topology.LevelAggCore {
					full--
				}
				pruned := sys.Stats.Pruned
				level := climbLevel(eng, sys, func() { c.exchange(int64(f), netem.Gbps, srcSide, !srcSide) })
				if sys.Stats.Pruned > pruned {
					want += int64(2 * (full - level))
				}
			}
		}
		if sys.Stats.Pruned == 0 {
			t.Fatalf("delegation=%v: no climb was pruned", deleg)
		}
		if sys.Stats.PruneSavedMsgs != want {
			t.Errorf("delegation=%v: PruneSavedMsgs = %d, want %d (2 per hop not climbed over %d pruned climbs)",
				deleg, sys.Stats.PruneSavedMsgs, want, sys.Stats.Pruned)
		}
	}
}
