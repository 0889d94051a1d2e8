package topology

import (
	"slices"
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// The structural-route differential: switches route by a host range
// and the Network reads paths from the link-ID rule, both the
// builder's arithmetic. These tests rebuild the same answers from
// Links alone — who is wired to whom — and compare.

var structuralShapes = []struct {
	name  string
	build func() *Network
}{
	{"single-rack", func() *Network { return Build(sim.NewEngine(), SingleRack(5, dtq)) }},
	{"baseline-4x40", func() *Network { return Build(sim.NewEngine(), Baseline(dtq)) }},
	{"6x2-3-per-agg", func() *Network { return Build(sim.NewEngine(), treeShape(6, 2, 3)) }},
	// A prime rack count leaves no divisor but 1: one agg per rack.
	{"7x3-prime", func() *Network { return Build(sim.NewEngine(), treeShape(7, 3, 1)) }},
	{"leaf-spine-4x3x5", func() *Network {
		cfg := DefaultLeafSpine(dtq)
		cfg.Racks, cfg.Spines, cfg.HostsPerRack = 4, 3, 5
		return Build(sim.NewEngine(), cfg)
	}},
}

func treeShape(racks, hostsPerRack, racksPerAgg int) Config {
	cfg := Baseline(dtq)
	cfg.Racks, cfg.HostsPerRack, cfg.RacksPerAgg = racks, hostsPerRack, racksPerAgg
	return cfg
}

// refUp derives host h's climb from Links: follow the one up link out
// of each node until a node has none (the top) or several (a leaf's
// mesh, which is chosen per flow).
func refUp(n *Network, h pkt.NodeID) []*Link {
	var out []*Link
	var at netem.Node = n.Hosts[h]
	for {
		var next []*Link
		for _, l := range n.Links {
			if l.Up && l.From == at {
				next = append(next, l)
			}
		}
		if len(next) != 1 {
			return out
		}
		out = append(out, next[0])
		at = next[0].To
	}
}

// linkBetween finds the directed link from → to in Links.
func linkBetween(t *testing.T, n *Network, from, to netem.Node) *Link {
	t.Helper()
	for _, l := range n.Links {
		if l.From == from && l.To == to {
			return l
		}
	}
	t.Fatalf("no link from node %d to node %d", from.ID(), to.ID())
	return nil
}

// refDown is the climb mirrored: the same hops top-down, each in the
// opposite direction.
func refDown(t *testing.T, n *Network, h pkt.NodeID) []*Link {
	var out []*Link
	for _, l := range refUp(n, h) {
		out = append(out, linkBetween(t, n, l.To, l.From))
	}
	slices.Reverse(out)
	return out
}

// TestPathArraysMatchLinks is the oracle for AppendPath's link-ID
// rule: every (source, destination, flow) path it reads, and its up
// count, must be the one rebuilt from Links, and the paths together
// must cross every link of the fabric.
func TestPathArraysMatchLinks(t *testing.T) {
	for _, shape := range structuralShapes {
		t.Run(shape.name, func(t *testing.T) {
			n := shape.build()
			hosts := pkt.NodeID(n.NumHosts())
			ups, downs := make([][]*Link, hosts), make([][]*Link, hosts)
			for h := pkt.NodeID(0); h < hosts; h++ {
				ups[h], downs[h] = refUp(n, h), refDown(t, n, h)
			}
			crossed := map[*Link]bool{}
			for src := pkt.NodeID(0); src < hosts; src++ {
				for dst := pkt.NodeID(0); dst < hosts; dst++ {
					if src == dst {
						continue
					}
					for flow := pkt.FlowID(1); flow <= 8; flow++ {
						wantUp, wantDown := ups[src], downs[dst]
						if n.IsLeafSpine() {
							if n.RackOf(src) != n.RackOf(dst) {
								spine := n.Spines[ECMPSpine(flow, len(n.Spines))]
								wantUp = append(slices.Clone(wantUp), linkBetween(t, n, n.ToRs[n.RackOf(src)], spine))
								wantDown = append([]*Link{linkBetween(t, n, spine, n.ToRs[n.RackOf(dst)])}, wantDown...)
							}
						} else {
							// The halves meet at the first switch both climbs share.
							m := 0
							for ups[src][m].To != ups[dst][m].To {
								m++
							}
							wantUp, wantDown = wantUp[:m+1], wantDown[len(wantDown)-(m+1):]
						}
						got, up := n.AppendPath(nil, src, dst, flow)
						if !slices.Equal(got, slices.Concat(wantUp, wantDown)) || up != len(wantUp) {
							t.Fatalf("AppendPath(%d, %d, %d) = %v with up %d, Links say %v then %v", src, dst, flow, got, up, wantUp, wantDown)
						}
						for _, l := range got {
							crossed[l] = true
						}
					}
				}
			}
			if len(crossed) != len(n.Links) {
				t.Fatalf("the paths cross %d of the fabric's %d links", len(crossed), len(n.Links))
			}
		})
	}
}

// TestStructuralRoutesFollowPaths forwards a real packet for every
// (source, destination, flow) and checks that it crosses exactly the
// links Network.AppendPath names: it lands at its destination after
// one hop per path link, each of which transmitted it once. The packets
// leave every switch toward every destination host.
func TestStructuralRoutesFollowPaths(t *testing.T) {
	for _, shape := range structuralShapes {
		t.Run(shape.name, func(t *testing.T) {
			n := shape.build()
			hosts := pkt.NodeID(n.NumHosts())
			var at pkt.NodeID
			var hops int
			for _, h := range n.Hosts {
				h.Handler = func(p *pkt.Packet) { at, hops = h.ID(), int(p.Hops) }
			}
			type hop struct {
				sw  *netem.Switch
				dst pkt.NodeID
			}
			seen := map[hop]bool{}
			var tx []int64
			for src := pkt.NodeID(0); src < hosts; src++ {
				for dst := pkt.NodeID(0); dst < hosts; dst++ {
					if src == dst {
						continue
					}
					for flow := pkt.FlowID(1); flow <= 8; flow++ {
						path, _ := n.AppendPath(nil, src, dst, flow)
						tx = tx[:0]
						for _, l := range path {
							tx = append(tx, l.Port.TxPackets)
						}
						at = -1
						n.Hosts[src].Send(&pkt.Packet{Size: 100, Src: src, Dst: dst, Flow: flow})
						if err := n.Eng.Run(); err != nil {
							t.Fatal(err)
						}
						if at != dst || hops != len(path) {
							t.Fatalf("(src %d, dst %d, flow %d) landed at node %d after %d hops, the path %v ends at %d after %d",
								src, dst, flow, at, hops, path, dst, len(path))
						}
						for i, l := range path {
							if l.Port.TxPackets != tx[i]+1 {
								t.Fatalf("(src %d, dst %d, flow %d) did not cross %v of its path %v", src, dst, flow, l, path)
							}
							if sw, ok := l.From.(*netem.Switch); ok {
								seen[hop{sw, dst}] = true
							}
						}
					}
				}
			}
			switches := len(n.ToRs) + len(n.Aggs) + len(n.Spines)
			if n.Core != nil {
				switches++
			}
			if want := switches * int(hosts); len(seen) != want {
				t.Fatalf("checked %d (switch, destination) pairs, the fabric has %d", len(seen), want)
			}
		})
	}
}
