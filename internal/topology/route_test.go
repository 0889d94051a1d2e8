package topology

import (
	"testing"

	"pase/internal/pkt"
	"pase/internal/sim"
)

// TestECMPSpineNonPowerOfTwo pins the hash's balance and determinism
// off the easy power-of-two modulus: with 3, 5 or 7 spines every spine
// still gets close to its fair share.
func TestECMPSpineNonPowerOfTwo(t *testing.T) {
	const flows = 30_000
	for _, spines := range []int{3, 5, 7} {
		counts := make([]int, spines)
		for f := pkt.FlowID(1); f <= flows; f++ {
			s := ECMPSpine(f, spines)
			if s != ECMPSpine(f, spines) {
				t.Fatalf("spines=%d: hash not deterministic", spines)
			}
			counts[s]++
		}
		fair := flows / spines
		for s, c := range counts {
			if c < fair*9/10 || c > fair*11/10 {
				t.Fatalf("spines=%d: spine %d carries %d flows, fair share %d (±10%%): %v",
					spines, s, c, fair, counts)
			}
		}
	}
}

func testTable(spines, racks int) *RouteTable {
	ports := make([]int, spines)
	for s := range ports {
		ports[s] = 10 + s // arbitrary but distinct egress ports
	}
	return NewRouteTable(0, ports, racks)
}

// TestRouteTableCleanMatchesECMP pins the determinism contract: a table
// nobody has mutated reproduces the pure ECMP hash for every flow and
// destination, including non-power-of-two spine counts.
func TestRouteTableCleanMatchesECMP(t *testing.T) {
	for _, spines := range []int{2, 3, 5} {
		rt := testTable(spines, 4)
		if !rt.Clean() {
			t.Fatalf("spines=%d: fresh table is not clean", spines)
		}
		for f := pkt.FlowID(1); f <= 2000; f++ {
			for dst := 0; dst < 4; dst++ {
				if got, want := rt.Pick(dst, f), ECMPSpine(f, spines); got != want {
					t.Fatalf("spines=%d flow=%d dst=%d: Pick=%d, ECMP=%d", spines, f, dst, got, want)
				}
			}
		}
	}
}

// TestRouteTableRehashMinimalChurn pins the failover property on a
// 3-spine table: downing one uplink moves exactly the flows hashed onto
// that spine (everything else keeps its path), and bringing it back
// restores the original assignment bit-for-bit.
func TestRouteTableRehashMinimalChurn(t *testing.T) {
	const spines, racks, flows = 3, 4, 2000
	rt := testTable(spines, racks)
	base := make(map[pkt.FlowID]int, flows)
	for f := pkt.FlowID(1); f <= flows; f++ {
		base[f] = rt.Pick(1, f)
	}

	const dead = 1
	rt.SetUplink(dead, true)
	if rt.Clean() || rt.Avail(1, dead) {
		t.Fatal("downed table should be dirty with the spine marked down")
	}
	for f := pkt.FlowID(1); f <= flows; f++ {
		got := rt.Pick(1, f)
		if base[f] != dead {
			if got != base[f] {
				t.Fatalf("flow %d moved %d→%d though its spine never failed", f, base[f], got)
			}
			continue
		}
		// Survivor scan goes upward from the dead spine.
		if want := (dead + 1) % spines; got != want {
			t.Fatalf("flow %d detoured to %d, want %d", f, got, want)
		}
	}

	rt.SetUplink(dead, false)
	if !rt.Clean() {
		t.Fatal("recovered table should be clean again")
	}
	for f := pkt.FlowID(1); f <= flows; f++ {
		if got := rt.Pick(1, f); got != base[f] {
			t.Fatalf("flow %d not restored after recovery: %d, want %d", f, got, base[f])
		}
	}
}

// TestRouteTableDstDownScoped pins the downlink dimension: a dead
// spine→rack downlink detours only traffic toward that rack.
func TestRouteTableDstDownScoped(t *testing.T) {
	const spines, racks = 3, 4
	rt := testTable(spines, racks)
	rt.SetDstDown(2, 0, true)
	for f := pkt.FlowID(1); f <= 2000; f++ {
		want := ECMPSpine(f, spines)
		if got := rt.Pick(1, f); got != want {
			t.Fatalf("flow %d toward healthy rack detoured %d→%d", f, want, got)
		}
		got := rt.Pick(2, f)
		if want == 0 {
			if got != 1 {
				t.Fatalf("flow %d toward rack 2 picked %d, want detour to 1", f, got)
			}
		} else if got != want {
			t.Fatalf("flow %d toward rack 2 moved %d→%d though spine %d is reachable", f, want, got, want)
		}
	}
	rt.SetDstDown(2, 0, false)
	if !rt.Clean() {
		t.Fatal("table should be clean after downlink recovery")
	}
}

// TestRouteTableOutagesNest pins the outage refcount: a link downed
// twice needs two ups before traffic returns.
func TestRouteTableOutagesNest(t *testing.T) {
	rt := testTable(3, 2)
	rt.SetUplink(0, true)
	rt.SetUplink(0, true)
	rt.SetUplink(0, false)
	if rt.Avail(1, 0) {
		t.Fatal("one up should not clear two downs")
	}
	rt.SetUplink(0, false)
	if !rt.Avail(1, 0) || !rt.Clean() {
		t.Fatal("second up should restore the clean table")
	}
}

// TestRouteTableTotalBlackhole pins the nothing-usable case: with every
// spine dead toward the destination Pick returns the assigned spine so
// the packet dies at the dead link where the fault layer counts it.
func TestRouteTableTotalBlackhole(t *testing.T) {
	const spines = 3
	rt := testTable(spines, 2)
	for s := 0; s < spines; s++ {
		rt.SetUplink(s, true)
	}
	for f := pkt.FlowID(1); f <= 100; f++ {
		if got, want := rt.Pick(0, f), ECMPSpine(f, spines); got != want {
			t.Fatalf("flow %d under total blackhole picked %d, want assigned %d", f, got, want)
		}
	}
}

// TestLeafSpineLinkIDHelpers pins UplinkID, and the downlink at the
// next ID, against the IDs Build actually assigns, via the
// fabric's own link classification.
func TestLeafSpineLinkIDHelpers(t *testing.T) {
	cfg := DefaultLeafSpine(dtq)
	cfg.Spines = 3
	n := Build(sim.NewEngine(), cfg)
	for r := 0; r < cfg.Racks; r++ {
		for s := 0; s < cfg.Spines; s++ {
			up, ok := n.LeafSpineLinkInfo(cfg.UplinkID(r, s))
			if !ok || up != (LeafSpineLink{Rack: r, Spine: s, Up: true}) {
				t.Fatalf("UplinkID(%d,%d): info=%+v ok=%v", r, s, up, ok)
			}
			down, ok := n.LeafSpineLinkInfo(cfg.UplinkID(r, s) + 1)
			if !ok || down != (LeafSpineLink{Rack: r, Spine: s, Up: false}) {
				t.Fatalf("downlink (%d,%d): info=%+v ok=%v", r, s, down, ok)
			}
		}
	}
}
