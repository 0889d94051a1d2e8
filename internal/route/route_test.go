package route

import (
	"io"
	"slices"
	"testing"

	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/trace"
)

// fixture is a controller on the te-failover shape — 4 leaves × 3
// spines, a non-power-of-two spine count — wired the way a run wires
// it.
type fixture struct {
	eng *sim.Engine
	ls  topology.LeafSpineConfig
	net *topology.Network
	reg *obs.Registry
	rec *trace.Recorder
	ctl *Controller
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	f := &fixture{eng: sim.NewEngine(), reg: obs.NewRegistry()}
	f.rec = trace.NewRecorder(f.eng, trace.RecorderConfig{SpanWriter: io.Discard})
	f.ls = topology.DefaultLeafSpine(func(topology.QueueKind) netem.Queue {
		return netem.NewDropTail(1024)
	})
	f.ls.Spines = 3
	f.net = topology.BuildLeafSpine(f.eng, f.ls)
	f.ctl = Attach(f.params(cfg))
	if f.ctl == nil {
		t.Fatal("Attach returned nil for an enabled config on a leaf-spine fabric")
	}
	return f
}

func (f *fixture) params(cfg Config) Params {
	return Params{Net: f.net, Cfg: cfg, Eng: f.eng, Reg: f.reg, Rec: f.rec}
}

// routes returns the route events recorded so far.
func (f *fixture) routes() []trace.RouteEvent {
	rt, _ := f.rec.Take()
	return rt.Route
}

func (f *fixture) counter(name string) int64 { return f.reg.Snapshot().Counters[name] }

// picks returns leaf rack's resolved spine for every (dstRack, bucket).
func (f *fixture) picks(rack int) [][]int {
	tbl := f.net.RouteTable(rack)
	out := make([][]int, f.ls.Leaves)
	for q := range out {
		for b := 0; b < tbl.Buckets(); b++ {
			out[q] = append(out[q], tbl.PickBucket(q, b))
		}
	}
	return out
}

// load keeps leaf rack's uplink to spine busy for n MTU serializations
// (1.2 µs each at the fabric's 10 Gbps) starting now; the packets die
// at the destination host, which has no transport installed.
func (f *fixture) load(rack, spine, n int) {
	port := f.net.SpineUpLinks(rack)[spine].Port
	dst := f.net.Hosts[((rack+1)%f.ls.Leaves)*f.ls.HostsPerLeaf].ID()
	for i := 0; i < n; i++ {
		port.Send(&pkt.Packet{Size: pkt.MTU, Dst: dst, Flow: 1})
	}
}

func TestAttachDisabledOrTree(t *testing.T) {
	f := newFixture(t, Config{Reroute: true})
	if c := Attach(f.params(Config{})); c != nil {
		t.Error("Attach with the zero Config returned a controller, want nil")
	}
	tree := topology.Build(sim.NewEngine(), topology.Baseline(func(topology.QueueKind) netem.Queue {
		return netem.NewDropTail(16)
	}))
	p := f.params(Config{Reroute: true, TE: true})
	p.Net = tree
	if c := Attach(p); c != nil {
		t.Error("Attach on a tree fabric returned a controller, want nil")
	}
	// A nil controller is a valid, inert OnLinkState target.
	(*Controller)(nil).LinkState(f.ls.UplinkID(0, 0), true)
}

func TestUplinkFailoverAndExactRecovery(t *testing.T) {
	f := newFixture(t, Config{Reroute: true})
	const rack, dead = 1, 2
	before := f.picks(rack)
	link := f.ls.UplinkID(rack, dead)

	f.ctl.LinkState(link, true)
	// Repaired before LinkState returns: no event has run.
	for q, row := range f.picks(rack) {
		for b, s := range row {
			want := before[q][b]
			if want == dead {
				want = (dead + 1) % f.ls.Spines
			}
			if s != want {
				t.Errorf("down: dst rack %d bucket %d resolves to spine %d, want %d", q, b, s, want)
			}
		}
	}
	for r := 0; r < f.ls.Leaves; r++ {
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
		for b, s := range row {
			if s != before[q][b] {
				t.Errorf("up: dst rack %d bucket %d resolves to spine %d, want %d", q, b, s, before[q][b])
			}
		}
	}

	moved := int64(topology.RouteBucketsPerSpine)
	want := []trace.RouteEvent{
		{At: 0, Rack: rack, Kind: trace.RouteLinkDown, Spine: dead, Arg: moved},
		{At: 0, Rack: rack, Kind: trace.RouteLinkUp, Spine: dead, Arg: moved},
	}
	if got := f.routes(); !slices.Equal(got, want) {
		t.Errorf("recorded %+v, want %+v", got, want)
	}
	for name, v := range map[string]int64{
		"route/link_down": 1, "route/link_up": 1, "route/reroutes": 2 * moved,
		"route/te_epochs": 0, "route/te_moves": 0,
	} {
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
	f := newFixture(t, Config{Reroute: true})
	const orphan, dead = 2, 1

	f.ctl.LinkState(f.ls.UplinkID(orphan, dead)+1, true)
	// The leaves learn one control-propagation delay later, not now,
	// one update per leaf in rack order.
	for r := 0; r < f.ls.Leaves; r++ {
		if !f.net.RouteTable(r).Clean() {
			t.Errorf("leaf %d's table changed before the update was delivered", r)
		}
	}
	for r := 0; r < f.ls.Leaves; r++ {
		if !f.eng.Step() {
			t.Fatalf("%d updates delivered, want one per leaf (%d)", r, f.ls.Leaves)
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
	for r := 0; r < f.ls.Leaves; r++ {
		tbl := f.net.RouteTable(r)
		if tbl.Avail(orphan, dead) {
			t.Errorf("leaf %d still routes to rack %d over spine %d", r, orphan, dead)
		}
		for b := 0; b < tbl.Buckets(); b++ {
			if tbl.PickBucket(orphan, b) == dead {
				t.Errorf("leaf %d bucket %d still resolves to the dead spine", r, b)
			}
		}
	}

	moved := int64(topology.RouteBucketsPerSpine)
	want := trace.RouteEvent{
		At: sim.Time(f.ls.LinkDelay), Rack: orphan, Kind: trace.RouteLinkDown, Spine: dead, Arg: moved,
	}
	if got := f.routes(); len(got) != 1 || got[0] != want {
		t.Errorf("recorded %+v, want exactly %+v (once, at the orphaned rack)", got, want)
	}
	if got := f.counter("route/link_down"); got != 1 {
		t.Errorf("route/link_down = %d, want 1 (one transition, not one per leaf)", got)
	}
	if got, want := f.counter("route/reroutes"), int64(f.ls.Leaves)*moved; got != want {
		t.Errorf("route/reroutes = %d, want %d", got, want)
	}
}

func TestTEHysteresisMoveAndDwell(t *testing.T) {
	f := newFixture(t, Config{TE: true})
	const rack = 0
	tbl := f.net.RouteTable(rack)
	epoch := sim.Time(DefaultEpoch)
	runTo := func(at sim.Time) {
		t.Helper()
		if err := f.eng.RunUntil(at); err != nil {
			t.Fatal(err)
		}
	}

	// Epoch 1: spine 0 at 6 % against idle spines — inside the 10 %
	// hysteresis band, nothing moves.
	f.load(rack, 0, 50)
	runTo(epoch)
	if !tbl.Clean() || f.counter("route/te_moves") != 0 {
		t.Fatalf("a 6%% gap moved a bucket (te_moves = %d)", f.counter("route/te_moves"))
	}

	// Epoch 2: spine 0 at 24 % — one bucket, the first on spine 0,
	// moves to the coldest spine; only one per epoch.
	f.load(rack, 0, 200)
	runTo(2 * epoch)
	if got := tbl.BucketSpine(0); got != 1 {
		t.Fatalf("bucket 0 on spine %d after the hot epoch, want 1", got)
	}
	if got := f.counter("route/te_moves"); got != 1 {
		t.Fatalf("te_moves = %d after one hot epoch, want 1", got)
	}

	// Epoch 3: spine 1 is now the hot one. Bucket 0 sits on it but
	// moved 1 ms ago, inside the 5 ms dwell, so it stays and the next
	// bucket on spine 1 moves instead (to spine 0, the first idle one).
	f.load(rack, 1, 200)
	runTo(3 * epoch)
	if got := tbl.BucketSpine(0); got != 1 {
		t.Errorf("bucket 0 moved again inside its dwell time (now on spine %d)", got)
	}
	if got := tbl.BucketSpine(1); got != 0 {
		t.Errorf("bucket 1 on spine %d, want 0: dwell must skip one bucket, not the epoch", got)
	}

	if got, want := f.counter("route/te_epochs"), int64(3*f.ls.Leaves); got != want {
		t.Errorf("route/te_epochs = %d, want %d (every leaf, every epoch)", got, want)
	}
	if got := f.counter("route/te_moves"); got != 2 {
		t.Errorf("route/te_moves = %d, want 2", got)
	}
	want := []trace.RouteEvent{
		{At: 2 * epoch, Rack: rack, Kind: trace.RouteTEMove, Spine: 1, Arg: 0},
		{At: 3 * epoch, Rack: rack, Kind: trace.RouteTEMove, Spine: 0, Arg: 1},
	}
	if got := f.routes(); !slices.Equal(got, want) {
		t.Errorf("recorded %+v, want %+v", got, want)
	}
}
