package topology

import (
	"testing"

	"pase/internal/pkt"
	"pase/internal/sim"
)

func buildDefaultLeafSpine(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	n := Build(eng, DefaultLeafSpine(dtq))
	return eng, n
}

func TestLeafSpineShape(t *testing.T) {
	_, n := buildDefaultLeafSpine(t)
	if !n.IsLeafSpine() {
		t.Fatal("fabric should report leaf-spine")
	}
	if n.NumHosts() != 40 || len(n.ToRs) != 4 || len(n.Spines) != 2 {
		t.Fatalf("shape: hosts=%d leaves=%d spines=%d", n.NumHosts(), len(n.ToRs), len(n.Spines))
	}
	// 40 host links + 4 leaves × 2 spines, both directions.
	if got := len(n.Links); got != (40+8)*2 {
		t.Fatalf("links = %d, want %d", got, (40+8)*2)
	}
}

func TestLeafSpineECMPDeterministicAndBalanced(t *testing.T) {
	counts := [2]int{}
	for f := pkt.FlowID(1); f <= 2000; f++ {
		s := ECMPSpine(f, 2)
		if s != ECMPSpine(f, 2) {
			t.Fatal("ECMP hash must be deterministic")
		}
		counts[s]++
	}
	if counts[0] < 800 || counts[1] < 800 {
		t.Fatalf("ECMP imbalance: %v", counts)
	}
}

func TestLeafSpinePathsFollowHash(t *testing.T) {
	_, n := buildDefaultLeafSpine(t)
	// Hosts 0 (leaf 0) and 15 (leaf 1).
	for f := pkt.FlowID(1); f <= 20; f++ {
		path, up := n.AppendPath(nil, 0, 15, f)
		if len(path) != 4 || up != 2 {
			t.Fatalf("flow %d: halves %d/%d, want 2/2", f, up, len(path)-up)
		}
		spine := ECMPSpine(f, 2)
		if path[1].To != n.Spines[spine] || path[2].From != n.Spines[spine] {
			t.Fatalf("flow %d path does not follow its ECMP spine", f)
		}
	}
	// Intra-leaf: one hop halves.
	if path, up := n.AppendPath(nil, 0, 1, 5); len(path) != 2 || up != 1 {
		t.Fatal("intra-leaf halves should be host links only")
	}
	// AppendPath lands the whole path in the caller's array when it has
	// the room.
	buf := make([]*Link, 0, 4)
	if a := testing.AllocsPerRun(100, func() { buf, _ = n.AppendPath(buf[:0], 0, 15, 3) }); a != 0 || len(buf) != 4 {
		t.Fatalf("refilling a 4-link array with a %d-link path allocates %.1f objects, want 4 links and 0", len(buf), a)
	}
}

func TestLeafSpineDeliveryMatchesHash(t *testing.T) {
	eng, n := buildDefaultLeafSpine(t)
	// Count data packets at each spine's ingress by tapping leaf
	// uplink TX counters after a run.
	got := make(map[pkt.NodeID]bool)
	for _, h := range n.Hosts {
		h := h
		h.Handler = func(p *pkt.Packet) { got[p.Src] = true }
	}
	for f := 0; f < 50; f++ {
		src := n.Host(f % 10)             // leaf 0
		dst := n.Host(10 + (f % 10)).ID() // leaf 1
		src.Send(&pkt.Packet{Flow: pkt.FlowID(f + 1), Src: src.ID(), Dst: dst, Size: pkt.MTU, Type: pkt.Data})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("nothing delivered")
	}
	// Both spines must have carried traffic.
	for s, spine := range n.Spines {
		var tx int64
		for _, p := range spine.Ports() {
			tx += p.TxPackets
		}
		if tx == 0 {
			t.Fatalf("spine %d carried no packets: ECMP not spreading", s)
		}
	}
}

func TestLeafSpineBaseRTT(t *testing.T) {
	_, n := buildDefaultLeafSpine(t)
	// Cross-leaf: 4 links × 25µs × 2 = 200µs; intra-leaf 100µs.
	if rtt := n.BaseRTT(0, 15); rtt != 200*sim.Microsecond {
		t.Fatalf("cross-leaf RTT = %v", rtt)
	}
	if rtt := n.BaseRTT(0, 1); rtt != 100*sim.Microsecond {
		t.Fatalf("intra-leaf RTT = %v", rtt)
	}
}

// TestBaseRTTCountsHopsWithoutAPath: on both fabric kinds BaseRTT is
// the hop count of the actual path, for every pair, and computing it
// builds no path (senders ask on every send before the first sample).
func TestBaseRTTCountsHopsWithoutAPath(t *testing.T) {
	_, tree := buildBaseline(t)
	_, ls := buildDefaultLeafSpine(t)
	for _, n := range []*Network{tree, ls} {
		hosts := pkt.NodeID(n.NumHosts())
		for src := pkt.NodeID(0); src < hosts; src++ {
			for dst := pkt.NodeID(0); dst < hosts; dst++ {
				path, _ := n.AppendPath(nil, src, dst, 0)
				want := sim.Duration(2*len(path)) * n.Cfg.LinkDelay
				if got := n.BaseRTT(src, dst); got != want {
					t.Fatalf("leaf-spine=%v: BaseRTT(%d, %d) = %v, the path says %v", n.IsLeafSpine(), src, dst, got, want)
				}
			}
		}
		if a := testing.AllocsPerRun(100, func() { n.BaseRTT(0, hosts-1) }); a != 0 {
			t.Errorf("leaf-spine=%v: BaseRTT allocates %.0f objects, want 0", n.IsLeafSpine(), a)
		}
	}
}
