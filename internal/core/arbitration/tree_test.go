package arbitration

import (
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
)

const (
	testRackCap = 10 * netem.Gbps
	testTopCap  = 40 * netem.Gbps
	testQueues  = 4
	testBase    = 40 * netem.Mbps
	testPeriod  = 300 * sim.Microsecond
)

func newTestTree(h HierarchyParams, racks int, clock func() sim.Time) *Tree {
	if clock == nil {
		clock = func() sim.Time { return 0 }
	}
	return newTree(nil, h, racks, testRackCap, testTopCap, testQueues, testBase,
		testPeriod, clock, TreeUpIDBase)
}

// TestTreeDisabled: the zero value and degenerate parameters must not
// build a tree — the classic flat 3-tier climb stays in charge.
func TestTreeDisabled(t *testing.T) {
	cases := []struct {
		name  string
		h     HierarchyParams
		racks int
	}{
		{"zero value", HierarchyParams{}, 16},
		{"fanout 1", HierarchyParams{FanOut: 1}, 16},
		{"fanout 1 sharded", HierarchyParams{FanOut: 1, TopShards: 4}, 16},
		{"no racks", HierarchyParams{FanOut: 4}, 0},
	}
	for _, tc := range cases {
		if tc.h.Enabled() && tc.racks > 0 {
			t.Errorf("%s: Enabled() = true, want false", tc.name)
		}
		if tr := newTestTree(tc.h, tc.racks, nil); tr != nil {
			t.Errorf("%s: newTree returned a tree, want nil", tc.name)
		}
	}
}

// TestTreeConstruction checks level sizes, node capacities and
// delegated-slice layout across rack counts that exercise exact
// powers, non-powers and the one-rack degenerate tree.
func TestTreeConstruction(t *testing.T) {
	cases := []struct {
		name       string
		racks      int
		h          HierarchyParams
		wantLevels []int // nodes per level, bottom-up
	}{
		{"one rack", 1, HierarchyParams{FanOut: 2}, []int{1}},
		{"one rack sharded", 1, HierarchyParams{FanOut: 2, TopShards: 4}, []int{1}},
		{"two racks", 2, HierarchyParams{FanOut: 2}, []int{2, 1}},
		{"two racks sharded", 2, HierarchyParams{FanOut: 2, TopShards: 3}, []int{2, 3}},
		{"non power of two", 5, HierarchyParams{FanOut: 2}, []int{5, 3, 2, 1}},
		{"power of two", 8, HierarchyParams{FanOut: 2}, []int{8, 4, 2, 1}},
		{"ragged fanout 4", 13, HierarchyParams{FanOut: 4}, []int{13, 4, 1}},
		{"square fanout 4", 16, HierarchyParams{FanOut: 4}, []int{16, 4, 1}},
		{"sharded root", 16, HierarchyParams{FanOut: 4, TopShards: 2}, []int{16, 4, 2}},
		{"wide fanout", 64, HierarchyParams{FanOut: 8}, []int{64, 8, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTestTree(tc.h, tc.racks, nil)
			if tr == nil {
				t.Fatal("newTree returned nil for enabled params")
			}
			if got := len(tr.levels); got != len(tc.wantLevels) {
				t.Fatalf("levels = %d, want %d", got, len(tc.wantLevels))
			}
			if got := tr.MaxDepth(); got != len(tc.wantLevels) {
				t.Fatalf("MaxDepth() = %d, want %d", got, len(tc.wantLevels))
			}
			root := len(tr.levels) - 1
			sharded := tc.h.TopShards > 1 && root > 0
			for lv, want := range tc.wantLevels {
				if got := len(tr.levels[lv]); got != want {
					t.Fatalf("level %d holds %d nodes, want %d", lv, got, want)
				}
			}
			// Node capacities: a level-lv node covering k racks carries
			// min(k·rackCap, topCap); root shards split topCap equally.
			span := 1
			for lv := 0; lv < len(tr.levels); lv++ {
				if lv == root && sharded {
					each := testTopCap / netem.BitRate(tc.h.TopShards)
					for s := 0; s < len(tr.levels[lv]); s++ {
						if got := tr.levels[lv][s].Capacity(); got != each {
							t.Fatalf("shard %d capacity %v, want %v", s, got, each)
						}
					}
					break
				}
				for i := 0; i < len(tr.levels[lv]); i++ {
					covered := tc.racks - i*span
					if covered > span {
						covered = span
					}
					want := testRackCap * netem.BitRate(covered)
					if want > testTopCap {
						want = testTopCap
					}
					if got := tr.levels[lv][i].Capacity(); got != want {
						t.Fatalf("level %d node %d capacity %v, want %v", lv, i, got, want)
					}
				}
				span *= tc.h.FanOut
			}
			// Delegated slices: one per child under every non-sharded
			// parent, sized by an equal split; none under a sharded root.
			for lv := 1; lv <= root; lv++ {
				if lv == root && sharded {
					if n := len(tr.slices[lv-1]); n != 0 {
						t.Fatalf("sharded root delegated %d slices", n)
					}
					continue
				}
				for c := 0; c < len(tr.levels[lv-1]); c++ {
					s := tr.slices[lv-1][c]
					if s == nil {
						t.Fatalf("missing slice for level-%d child %d", lv, c)
					}
					p := c / tc.h.FanOut
					kids := len(tr.levels[lv-1]) - p*tc.h.FanOut
					if kids > tc.h.FanOut {
						kids = tc.h.FanOut
					}
					want := tr.levels[lv][p].Capacity() / netem.BitRate(kids)
					if got := s.Capacity(); got != want {
						t.Fatalf("slice (%d,%d) capacity %v, want %v", lv, c, got, want)
					}
				}
			}
		})
	}
}

// TestTreeClimbPath checks the bottom-up path a refresh consults: the
// meet level, delegated early stops, full climbs with delegation off,
// and shard selection at a replicated root.
func TestTreeClimbPath(t *testing.T) {
	tr := newTestTree(HierarchyParams{FanOut: 4}, 16, nil) // levels 16,4,1
	flow := pkt.FlowID(7)

	t.Run("same rack", func(t *testing.T) {
		steps := tr.ClimbPath(nil, flow, 3, 3, true)
		if len(steps) != 1 || steps[0].arb != tr.levels[0][3] || steps[0].depth != 1 {
			t.Fatalf("intra-rack path = %+v, want only the level-0 node at depth 1", steps)
		}
	})
	t.Run("sibling racks delegate", func(t *testing.T) {
		// Racks 0 and 1 meet under level-1 node 0: the climb stops at
		// rack 0's delegated slice of that parent — same depth as the
		// level-0 stop, no extra hop.
		steps := tr.ClimbPath(nil, flow, 0, 1, true)
		if len(steps) != 2 {
			t.Fatalf("sibling path has %d steps, want 2", len(steps))
		}
		last := steps[1]
		if !last.delegated || last.arb != tr.slices[0][0] || last.depth != 1 {
			t.Fatalf("sibling meet = %+v, want rack 0's slice slices[0][0] at depth 1", last)
		}
	})
	t.Run("sibling racks no delegation", func(t *testing.T) {
		steps := tr.ClimbPath(nil, flow, 0, 1, false)
		if len(steps) != 2 {
			t.Fatalf("path has %d steps, want 2", len(steps))
		}
		if steps[1].delegated || steps[1].arb != tr.levels[1][0] || steps[1].depth != 2 {
			t.Fatalf("meet = %+v, want level-1 node 0 at depth 2", steps[1])
		}
	})
	t.Run("cross fabric", func(t *testing.T) {
		// Racks 0 and 15 only meet at the root; delegation stops at
		// rack group 0's slice of the root, one hop cheaper.
		steps := tr.ClimbPath(nil, flow, 0, 15, true)
		if len(steps) != 3 {
			t.Fatalf("cross-fabric path has %d steps, want 3", len(steps))
		}
		if steps[1].arb != tr.levels[1][0] || steps[1].depth != 2 {
			t.Fatalf("step 1 = %+v, want level-1 node 0 at depth 2", steps[1])
		}
		if !steps[2].delegated || steps[2].arb != tr.slices[1][0] || steps[2].depth != 2 {
			t.Fatalf("step 2 = %+v, want the root slice slices[1][0] at depth 2", steps[2])
		}
	})
	t.Run("both ends meet at one arbitrator", func(t *testing.T) {
		// With delegation off the two directions of an exchange must
		// consult the same meet-level node, or feasibility would be
		// checked against two different books.
		ab := tr.ClimbPath(nil, flow, 2, 9, false)
		ba := tr.ClimbPath(nil, flow, 9, 2, false)
		if ab[len(ab)-1].arb != ba[len(ba)-1].arb {
			t.Fatal("a→b and b→a climbs ended at different meet arbitrators")
		}
	})
	t.Run("sharded root", func(t *testing.T) {
		sh := newTestTree(HierarchyParams{FanOut: 4, TopShards: 2}, 16, nil)
		steps := sh.ClimbPath(nil, flow, 0, 15, true)
		// A sharded root never delegates: full-depth climb onto the
		// flow's hashed shard.
		last := steps[len(steps)-1]
		if last.delegated {
			t.Fatal("sharded root produced a delegated stop")
		}
		want := sh.levels[2][sh.ShardOf(flow)]
		if last.arb != want || last.depth != 3 {
			t.Fatalf("root stop = %+v, want shard %d at depth 3", last, sh.ShardOf(flow))
		}
		// The shard choice is per-flow and stable.
		for f := pkt.FlowID(1); f < 100; f++ {
			s := sh.ShardOf(f)
			if s < 0 || s >= sh.shards {
				t.Fatalf("ShardOf(%d) = %d outside [0,%d)", f, s, sh.shards)
			}
			if s != sh.ShardOf(f) {
				t.Fatalf("ShardOf(%d) unstable", f)
			}
		}
	})
	t.Run("one rack degenerate", func(t *testing.T) {
		one := newTestTree(HierarchyParams{FanOut: 2, TopShards: 4}, 1, nil)
		steps := one.ClimbPath(nil, flow, 0, 0, true)
		if len(steps) != 1 || steps[0].arb != one.levels[0][0] {
			t.Fatalf("degenerate path = %+v, want only the root", steps)
		}
	})
}

// TestTreeRefreshShares checks the generalized delegation rebalance:
// proportional to top-queue demand, 10% floor for quiet children, two
// control messages per child of a busy parent, and silence when the
// whole group is idle.
func TestTreeRefreshShares(t *testing.T) {
	var now sim.Time
	clock := func() sim.Time { return now }

	t.Run("idle group exchanges nothing", func(t *testing.T) {
		tr := newTestTree(HierarchyParams{FanOut: 4}, 4, clock)
		var msgs int64
		tr.RefreshShares(2, func(n int64) { msgs += n })
		if msgs != 0 {
			t.Fatalf("idle tree exchanged %d messages, want 0", msgs)
		}
	})

	t.Run("proportional with floor", func(t *testing.T) {
		tr := newTestTree(HierarchyParams{FanOut: 4}, 4, clock) // levels 4,1; parent cap 40G
		// Child 0 demands 30G, child 1 demands 10G, children 2 and 3
		// stay idle: shares go 30/10, idle kids land on the 1G floor
		// (40G/(10·4)).
		tr.slices[0][0].Update(1, 100, 30*netem.Gbps)
		tr.slices[0][1].Update(2, 100, 10*netem.Gbps)
		var msgs int64
		tr.RefreshShares(2, func(n int64) { msgs += n })
		if msgs != 8 {
			t.Fatalf("busy parent exchanged %d messages, want 2 per child = 8", msgs)
		}
		if got := tr.slices[0][0].Capacity(); got != 30*netem.Gbps {
			t.Fatalf("slice 0 capacity %v, want 30Gbps", got)
		}
		if got := tr.slices[0][1].Capacity(); got != 10*netem.Gbps {
			t.Fatalf("slice 1 capacity %v, want 10Gbps", got)
		}
		floor := 40 * netem.Gbps / netem.BitRate(10*4)
		for c := 2; c < 4; c++ {
			if got := tr.slices[0][c].Capacity(); got != floor {
				t.Fatalf("idle slice %d capacity %v, want floor %v", c, got, floor)
			}
		}
	})

	t.Run("zero demand splits equally", func(t *testing.T) {
		tr := newTestTree(HierarchyParams{FanOut: 4}, 4, clock)
		// A registered flow with zero demand keeps the group busy but
		// contributes no aggregate: capacity splits evenly.
		tr.slices[0][0].Update(1, 100, 0)
		tr.RefreshShares(2, nil)
		want := 40 * netem.Gbps / 4
		for c := 0; c < 4; c++ {
			if got := tr.slices[0][c].Capacity(); got != want {
				t.Fatalf("slice %d capacity %v, want equal split %v", c, got, want)
			}
		}
	})

	t.Run("pruned demand excluded", func(t *testing.T) {
		tr := newTestTree(HierarchyParams{FanOut: 4}, 4, clock)
		s := tr.slices[0][0]
		// Two high-priority flows fill the slice's 10G default share;
		// a third, worse-keyed flow lands below the prune threshold and
		// must not inflate the published aggregate.
		s.Update(1, 10, 6*netem.Gbps)
		s.Update(2, 20, 6*netem.Gbps)
		s.Update(3, 30, 50*netem.Gbps) // ADH 12G ≥ 10G cap → queue ≥ 1
		tr.slices[0][1].Update(4, 10, 12*netem.Gbps)
		tr.RefreshShares(1, nil) // prune at queue 1: only queue-0 demand counts
		// Aggregates: slice 0 publishes 12G (not 62G), slice 1 12G —
		// equal shares of the 40G parent.
		if got, want := tr.slices[0][0].Capacity(), 20*netem.Gbps; got != want {
			t.Fatalf("slice 0 capacity %v, want %v (pruned flow excluded)", got, want)
		}
		if got, want := tr.slices[0][1].Capacity(), 20*netem.Gbps; got != want {
			t.Fatalf("slice 1 capacity %v, want %v", got, want)
		}
	})

	t.Run("crashed parent skipped", func(t *testing.T) {
		tr := newTestTree(HierarchyParams{FanOut: 2}, 4, clock) // levels 4,2,1
		tr.levels[1][0].Crash()
		tr.slices[0][0].Update(1, 100, 5*netem.Gbps)
		before := tr.slices[0][0].Capacity()
		var msgs int64
		tr.RefreshShares(2, func(n int64) { msgs += n })
		if got := tr.slices[0][0].Capacity(); got != before {
			t.Fatalf("crashed parent rebalanced its children: %v → %v", before, got)
		}
		if msgs != 0 {
			t.Fatalf("crashed parent exchanged %d messages, want 0", msgs)
		}
	})
}

// TestTreePruneStopsClimb emulates the system's early-pruning walk: a
// refresh that falls out of the top queues at some level stops there,
// and no arbitrator above the stop ever sees the flow.
func TestTreePruneStopsClimb(t *testing.T) {
	var now sim.Time
	tr := newTestTree(HierarchyParams{FanOut: 4}, 16, func() sim.Time { return now })
	const prune = int8(1)

	// Saturate rack 0's level-0 node (10G) with two better-keyed flows
	// so the probe flow's ADH (12G) pushes it to queue 1 at the first
	// stop of a cross-fabric climb.
	tr.levels[0][0].Update(101, 10, 6*netem.Gbps)
	tr.levels[0][0].Update(102, 20, 6*netem.Gbps)

	probe := pkt.FlowID(999)
	steps := tr.ClimbPath(nil, probe, 0, 15, false)
	if len(steps) != 3 {
		t.Fatalf("cross-fabric climb has %d steps, want 3", len(steps))
	}
	stopped := len(steps)
	for i, st := range steps {
		d := st.arb.Update(probe, 30, 5*netem.Gbps)
		if d.Queue >= prune {
			stopped = i + 1
			break
		}
	}
	if stopped != 1 {
		t.Fatalf("climb stopped after %d steps, want pruned at the first", stopped)
	}
	for _, st := range steps[stopped:] {
		if _, ok := lookup(st.arb, probe); ok {
			t.Fatalf("pruned flow registered above the stop (link %d)", st.arb.LinkID)
		}
	}
	// The pruned flow still holds a registration (and a decision) at
	// every level it did reach.
	for _, st := range steps[:stopped] {
		if _, ok := lookup(st.arb, probe); !ok {
			t.Fatalf("flow missing below the prune point (link %d)", st.arb.LinkID)
		}
	}
}

// TestTreeCrashRestore: ForEach reaches every node, shard and slice, so
// crashing what it visits wipes the whole tree and marks it
// unreachable; restoring brings it back empty.
func TestTreeCrashRestore(t *testing.T) {
	tr := newTestTree(HierarchyParams{FanOut: 4, TopShards: 2}, 16, nil)
	for _, st := range tr.ClimbPath(nil, 5, 0, 15, true) {
		st.arb.Update(5, 100, netem.Gbps)
	}
	tr.ForEach((*Arbitrator).Crash)
	nodes := 0
	tr.ForEach(func(a *Arbitrator) {
		nodes++
		if !a.Down() {
			t.Fatalf("arbitrator %d still up after Crash", a.LinkID)
		}
		if a.Flows() != 0 {
			t.Fatalf("arbitrator %d kept %d flows across Crash", a.LinkID, a.Flows())
		}
	})
	// 16+4+2 nodes plus 16+4... the sharded root delegates nothing, so
	// only level-1 parents hand out slices: 16 of them.
	if want := 16 + 4 + 2 + 16; nodes != want {
		t.Fatalf("ForEach visited %d arbitrators, want %d", nodes, want)
	}
	tr.ForEach((*Arbitrator).Restore)
	tr.ForEach(func(a *Arbitrator) {
		if a.Down() {
			t.Fatalf("arbitrator %d still down after Restore", a.LinkID)
		}
	})
}
