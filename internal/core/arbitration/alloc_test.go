package arbitration

import (
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
)

// wideTree is a 64-rack fabric of two-host racks: with FanOut 4 and two
// root shards the aggregation trees have levels 64, 16, 4 and a
// replicated root.
func wideTree(newQueue func(topology.QueueKind) netem.Queue) topology.Config {
	return topology.Config{
		Racks: 64, HostsPerRack: 2, RacksPerAgg: 8,
		EdgeRate: netem.Gbps, FabricRate: 10 * netem.Gbps,
		LinkDelay: 2 * sim.Microsecond, NewQueue: newQueue,
	}
}

// refreshRound builds a 64-flow book of cross-fabric clients and
// returns one steady-state round: every client refreshes, then the
// engine drains an epoch — the replies, their OnUpdate callbacks and
// the system's periodic share refresh.
func refreshRound(tb testing.TB, cfg topology.Config, p Params) func() {
	tb.Helper()
	eng := sim.NewEngine()
	net := topology.Build(eng, cfg)
	sys := NewSystem(net, p)
	hosts := net.NumHosts()
	clients := make([]*Client, 64)
	updates := 0
	for i := range clients {
		src := i * (hosts / 2) / len(clients)
		clients[i] = sys.NewClient(pkt.FlowID(i+1), pkt.NodeID(src), pkt.NodeID(src+hosts/2))
		clients[i].OnUpdate = onUpdate(func() { updates++ })
	}
	round := 0
	return func() {
		round++
		for i, c := range clients {
			c.Refresh(int64((i*31+round)%977)*1000, netem.Gbps)
		}
		before := updates
		if err := eng.RunUntil(eng.Now().Add(p.Epoch)); err != nil {
			tb.Fatal(err)
		}
		if updates == before {
			tb.Fatal("a round of refreshes delivered no response")
		}
	}
}

// TestRefreshAllocFree: once the free lists, the scratch slices and the
// event calendar are warm, a refresh — request, per-link update, epoch
// recompute, delayed reply, share refresh — allocates nothing, on every
// arm of the control plane.
func TestRefreshAllocFree(t *testing.T) {
	flat := DefaultParams()
	tree := DefaultParams()
	tree.Epoch, tree.CtrlPerHop = 200*sim.Microsecond, 7*sim.Microsecond // as the runner sets them on this fabric
	tree.Hierarchy = HierarchyParams{FanOut: 4, TopShards: 2}
	central := DefaultParams()
	central.Central = true
	for _, tc := range []struct {
		name string
		cfg  topology.Config
		p    Params
	}{
		{"flat", topology.Baseline(prioQ), flat},
		{"tree", wideTree(prioQ), tree},
		{"central", topology.Baseline(prioQ), central},
	} {
		t.Run(tc.name, func(t *testing.T) {
			round := refreshRound(t, tc.cfg, tc.p)
			for i := 0; i < 20; i++ {
				round()
			}
			if n := testing.AllocsPerRun(50, round); n != 0 {
				t.Errorf("a steady round of 64 refreshes allocates %.0f objects, want 0", n)
			}
		})
	}
}

// TestRecomputeAllocFree: one epoch recompute over 64 live flows — the
// sorted pass of Algorithm 1 — allocates nothing.
func TestRecomputeAllocFree(t *testing.T) {
	var now sim.Time
	a := NewArbitrator(0, 10*netem.Gbps, 8, 40*netem.Mbps, 300*sim.Microsecond, func() sim.Time { return now })
	for i := 0; i < 64; i++ {
		a.Update(pkt.FlowID(i+1), int64(i*1000), netem.Gbps)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		now = now.Add(300 * sim.Microsecond) // a new epoch: the next Update runs a full pass
		i++
		a.Update(pkt.FlowID(i%64+1), int64((i*7919)%64000), netem.Gbps)
	}); n != 0 {
		t.Errorf("an epoch recompute over 64 flows allocates %.0f objects, want 0", n)
	}
}

// TestTreeRefreshSharesAllocFree: a share refresh of a tree whose
// slices all carry flows allocates nothing.
func TestTreeRefreshSharesAllocFree(t *testing.T) {
	var now sim.Time
	tr := newTestTree(HierarchyParams{FanOut: 4, TopShards: 2}, 64, func() sim.Time { return now })
	for c := 0; c < 64; c++ {
		tr.slices[0][c].Update(pkt.FlowID(c+1), int64(c), netem.BitRate(c+1)*netem.Gbps)
	}
	for s := 0; s < tr.shards; s++ {
		tr.levels[len(tr.levels)-1][s].Update(pkt.FlowID(100+s), 1, netem.Gbps)
	}
	var msgs int64
	count := func(n int64) { msgs += n }
	tr.RefreshShares(2, count)
	if msgs == 0 {
		t.Fatal("a busy tree exchanged no share messages")
	}
	if n := testing.AllocsPerRun(100, func() { tr.RefreshShares(2, count) }); n != 0 {
		t.Errorf("RefreshShares on a busy tree allocates %.0f objects, want 0", n)
	}
}

// onUpdate is a test's Client.OnUpdate target.
type onUpdate func()

func (f onUpdate) Fire(any) { f() }

// lateFirst delays the first n surviving responses and drops nothing.
type lateFirst struct {
	n    int
	late sim.Duration
}

func (f *lateFirst) DropRequest() bool  { return false }
func (f *lateFirst) DropResponse() bool { return false }
func (f *lateFirst) CtrlExtraDelay() sim.Duration {
	if f.n > 0 {
		f.n--
		return f.late
	}
	return 0
}

// TestRepliesCarryTheirOwnDecision issues two refreshes of one client
// before any response lands, with the first refresh's responses delayed
// past the second's. Each response must apply the decision its own
// refresh computed, in arrival order — several responses for one half
// are legitimately in flight at once, so the pending state is a record
// per response, not a slot per client — and one landing after Release
// must change nothing.
func TestRepliesCarryTheirOwnDecision(t *testing.T) {
	const late = 5 * sim.Millisecond
	base := netem.BitRate(float64(pkt.MTU*8) / DefaultParams().Epoch.Seconds())
	first := Decision{Queue: 0, Rref: netem.Gbps} // alone on its access links
	second := Decision{Queue: 1, Rref: base}      // behind a rival filling them

	for _, release := range []bool{false, true} {
		eng, _, sys := buildSys(t, DefaultParams())
		sys.Faults = &lateFirst{n: 2, late: late} // both halves of the first refresh
		a := sys.NewClient(1, 0, 159)
		rival := sys.NewClient(2, 0, 159)
		var seen []Decision
		a.OnUpdate = onUpdate(func() { seen = append(seen, a.Combined()) })

		a.Refresh(5000, netem.Gbps)
		rival.Refresh(100, netem.Gbps) // more urgent, takes the whole link
		a.Refresh(5000, netem.Gbps)

		if err := eng.RunUntil(sim.Time(late / 2)); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 2 || seen[0] != second || seen[1] != second {
			t.Fatalf("release=%v: after the second refresh's responses: %+v, want two of %+v", release, seen, second)
		}
		if release {
			a.Release()
		}
		if err := eng.RunUntil(sim.Time(2 * late)); err != nil {
			t.Fatal(err)
		}
		switch {
		case release && len(seen) != 2:
			t.Fatalf("responses landing after Release still updated the client: %+v", seen)
		case !release && (len(seen) != 4 || seen[3] != first):
			// The overtaken responses land last and carry the first
			// refresh's decision, not a copy of the second's.
			t.Fatalf("after the delayed responses: %+v, want the last to be %+v", seen, first)
		}
	}
}

// TestStaleReplyMissesTheNextLife: a client record goes round with its
// flow's control, so a response still in flight from one life can land
// on the next. Flow 1's responses are held back past its release; the
// same record starts over as flow 2, which a more urgent rival pushes
// to queue 1. Flow 2 must see its own two responses and nothing of flow
// 1's top-queue grant.
func TestStaleReplyMissesTheNextLife(t *testing.T) {
	const late = 5 * sim.Millisecond
	base := netem.BitRate(float64(pkt.MTU*8) / DefaultParams().Epoch.Seconds())
	own := Decision{Queue: 1, Rref: base}

	eng, _, sys := buildSys(t, DefaultParams())
	sys.Faults = &lateFirst{n: 2, late: late} // both halves of flow 1's refresh
	c := sys.NewClient(1, 0, 159)
	c.Refresh(5000, netem.Gbps)
	c.Release()

	rival := sys.NewClient(3, 0, 159)
	rival.Refresh(100, netem.Gbps) // more urgent, takes the whole path
	sys.InitClient(c, 2, 0, 159)
	var seen []Decision
	c.OnUpdate = onUpdate(func() { seen = append(seen, c.Combined()) })
	c.Refresh(5000, netem.Gbps)

	if err := eng.RunUntil(sim.Time(2 * late)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != own || seen[1] != own || c.Combined() != own {
		t.Fatalf("flow 2 saw %+v and holds %+v, want its own two responses of %+v", seen, c.Combined(), own)
	}
}

// TestInitClientAllocFree: restarting a released client for a new flow
// refills its path into the client's own array, so a warm InitClient
// and Release allocate nothing: within a leaf, across a leaf-spine's
// spines and across a tree's core.
func TestInitClientAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      topology.Config
		src, dst pkt.NodeID
	}{
		{"intra-leaf", topology.DefaultLeafSpine(prioQ), 0, 1},
		{"inter-leaf", topology.DefaultLeafSpine(prioQ), 0, 39},
		{"cross-core", topology.Baseline(prioQ), 0, 159},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := NewSystem(topology.Build(sim.NewEngine(), tc.cfg), DefaultParams())
			c := sys.NewClient(1, tc.src, tc.dst)
			c.Release()
			flow := pkt.FlowID(1)
			if n := testing.AllocsPerRun(100, func() {
				flow++
				sys.InitClient(c, flow, tc.src, tc.dst)
				c.Release()
			}); n != 0 {
				t.Errorf("InitClient and Release of a recycled client allocate %.1f objects, want 0", n)
			}
		})
	}
}
