package route

import (
	"io"
	"slices"
	"testing"

	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/trace"
)

// fixture is a controller on the te-failover shape — 4 leaves × 3
// spines, a non-power-of-two spine count — wired the way a run wires
// it.
type fixture struct {
	eng *sim.Engine
	ls  topology.Config
	net *topology.Network
	reg *obs.Registry
	rec *trace.Recorder
	ctl *Controller
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{eng: sim.NewEngine(), reg: obs.NewRegistry()}
	f.rec = trace.NewRecorder(f.eng, trace.RecorderConfig{SpanWriter: io.Discard})
	f.ls = topology.DefaultLeafSpine(func(topology.QueueKind) netem.Queue {
		return netem.NewDropTail(1024)
	})
	f.ls.Spines = 3
	f.net = topology.Build(f.eng, f.ls)
	f.ctl = Attach(Params{Net: f.net, Eng: f.eng, Reg: f.reg, Rec: f.rec})
	if f.ctl == nil {
		t.Fatal("Attach returned nil on a leaf-spine fabric")
	}
	return f
}

// routes returns the route events recorded so far.
func (f *fixture) routes() []trace.RouteEvent {
	rt, _ := f.rec.Take()
	return rt.Route
}

func (f *fixture) counter(name string) int64 { return f.reg.Snapshot().Counters[name] }

// picks returns leaf rack's resolved spine for every (dstRack, hashed
// spine).
func (f *fixture) picks(rack int) [][]int {
	tbl := f.net.RouteTable(rack)
	out := make([][]int, f.ls.Racks)
	for q := range out {
		for s := 0; s < f.ls.Spines; s++ {
			out[q] = append(out[q], tbl.PickFrom(q, s))
		}
	}
	return out
}

// TestAttachDisabledOrTree: a tree fabric has no route tables, so
// Attach returns nil, and a nil controller is a valid, inert
// OnLinkState target.
func TestAttachDisabledOrTree(t *testing.T) {
	f := newFixture(t)
	tree := topology.Build(sim.NewEngine(), topology.Baseline(func(topology.QueueKind) netem.Queue {
		return netem.NewDropTail(16)
	}))
	if c := Attach(Params{Net: tree, Eng: f.eng}); c != nil {
		t.Error("Attach on a tree fabric returned a controller, want nil")
	}
	(*Controller)(nil).LinkState(f.ls.UplinkID(0, 0), true)
}

func TestUplinkFailoverAndExactRecovery(t *testing.T) {
	f := newFixture(t)
	const rack, dead = 1, 2
	before := f.picks(rack)
	link := f.ls.UplinkID(rack, dead)

	f.ctl.LinkState(link, true)
	// Repaired before LinkState returns: no event has run.
	for q, row := range f.picks(rack) {
		for h, s := range row {
			want := before[q][h]
			if want == dead {
				want = (dead + 1) % f.ls.Spines
			}
			if s != want {
				t.Errorf("down: dst rack %d, hashed spine %d resolves to spine %d, want %d", q, h, s, want)
			}
		}
	}
	for r := 0; r < f.ls.Racks; r++ {
		if r != rack && !f.net.RouteTable(r).Clean() {
			t.Errorf("leaf %d's table changed on leaf %d's uplink failure", r, rack)
		}
	}
	if f.eng.Step() {
		t.Error("uplink failure scheduled an event; the leaf owns the port and repairs in place")
	}

	f.ctl.LinkState(link, false)
	if tbl := f.net.RouteTable(rack); !tbl.Clean() {
		t.Error("table not clean after the uplink came back")
	}
	for q, row := range f.picks(rack) {
		for h, s := range row {
			if s != before[q][h] {
				t.Errorf("up: dst rack %d, hashed spine %d resolves to spine %d, want %d", q, h, s, before[q][h])
			}
		}
	}

	want := []trace.RouteEvent{
		{At: 0, Rack: rack, Kind: trace.RouteLinkDown, Spine: dead},
		{At: 0, Rack: rack, Kind: trace.RouteLinkUp, Spine: dead},
	}
	if got := f.routes(); !slices.Equal(got, want) {
		t.Errorf("recorded %+v, want %+v", got, want)
	}
	for name, v := range map[string]int64{"route/link_down": 1, "route/link_up": 1} {
		if got := f.counter(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}

	// Host edge links are not reroutable and must be ignored.
	f.ctl.LinkState(0, true)
	if got := f.counter("route/link_down"); got != 1 {
		t.Errorf("host-link outage counted: route/link_down = %d, want 1", got)
	}
}

func TestDownlinkFailureFansOutInRackOrder(t *testing.T) {
	f := newFixture(t)
	const orphan, dead = 2, 1

	f.ctl.LinkState(f.ls.UplinkID(orphan, dead)+1, true)
	// The leaves learn one control-propagation delay later, not now,
	// one update per leaf in rack order.
	for r := 0; r < f.ls.Racks; r++ {
		if !f.net.RouteTable(r).Clean() {
			t.Errorf("leaf %d's table changed before the update was delivered", r)
		}
	}
	for r := 0; r < f.ls.Racks; r++ {
		if !f.eng.Step() {
			t.Fatalf("%d updates delivered, want one per leaf (%d)", r, f.ls.Racks)
		}
		if f.eng.Now() != sim.Time(f.ls.LinkDelay) {
			t.Errorf("update %d delivered at %v, want one link delay out", r, f.eng.Now())
		}
		if f.net.RouteTable(r).Avail(orphan, dead) {
			t.Errorf("update %d did not reach leaf %d: updates go out in rack order", r, r)
		}
	}
	if f.eng.Step() {
		t.Error("a downlink failure delivered more updates than there are leaves")
	}
	for r := 0; r < f.ls.Racks; r++ {
		tbl := f.net.RouteTable(r)
		if tbl.Avail(orphan, dead) {
			t.Errorf("leaf %d still routes to rack %d over spine %d", r, orphan, dead)
		}
		for s := 0; s < f.ls.Spines; s++ {
			if tbl.PickFrom(orphan, s) == dead {
				t.Errorf("leaf %d: flows hashed onto spine %d still resolve to the dead spine", r, s)
			}
		}
	}

	want := trace.RouteEvent{At: sim.Time(f.ls.LinkDelay), Rack: orphan, Kind: trace.RouteLinkDown, Spine: dead}
	if got := f.routes(); len(got) != 1 || got[0] != want {
		t.Errorf("recorded %+v, want exactly %+v (once, at the orphaned rack)", got, want)
	}
	if got := f.counter("route/link_down"); got != 1 {
		t.Errorf("route/link_down = %d, want 1 (one transition, not one per leaf)", got)
	}
}
