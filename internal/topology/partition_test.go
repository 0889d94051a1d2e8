package topology

import (
	"testing"

	"pase/internal/netem"
	"pase/internal/sim"
)

// wantAtoms reads each node's atom off the built fabric: a host is in
// its rack's atom, ToR/leaf r is atom r, and every upper-tier switch
// (each agg, then the core, or each spine) is an atom of its own.
func wantAtoms(n *Network) (atomOf map[netem.Node]int, atoms int) {
	atomOf = map[netem.Node]int{}
	for _, h := range n.Hosts {
		atomOf[h] = n.RackOf(h.ID())
	}
	for r, tor := range n.ToRs {
		atomOf[tor] = r
	}
	atoms = len(n.ToRs)
	upper := append([]*netem.Switch{}, n.Aggs...)
	if n.Core != nil {
		upper = append(upper, n.Core)
	}
	for _, sw := range append(upper, n.Spines...) {
		atomOf[sw] = atoms
		atoms++
	}
	return atomOf, atoms
}

// TestPartitionAtoms deals every fabric shape onto each shard count
// from 1 to one past its atom count and checks the effective count and
// every node's shard against the atoms the built fabric implies.
func TestPartitionAtoms(t *testing.T) {
	leafSpine := func(leaves, spines int) Config {
		cfg := DefaultLeafSpine(dtq)
		cfg.Racks, cfg.Spines = leaves, spines
		return cfg
	}
	for _, c := range []struct {
		name  string
		atoms int
		cfg   Config
	}{
		{"baseline", 4 + 2 + 1, Baseline(dtq)},
		{"single-rack", 1, SingleRack(20, dtq)},
		{"leaf-spine-4x2", 4 + 2, leafSpine(4, 2)},
		{"leaf-spine-wide-8x4", 8 + 4, leafSpine(8, 4)},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := Build(sim.NewEngine(), c.cfg)
			atomOf, atoms := wantAtoms(n)
			if atoms != c.atoms {
				t.Fatalf("the built fabric has %d atoms, want %d", atoms, c.atoms)
			}
			for k := 1; k <= atoms+1; k++ {
				p := PartitionFabric(c.cfg, k)
				if want := min(k, atoms); p.Shards != want || p.Atoms != atoms || len(p.byNode) != len(atomOf) {
					t.Fatalf("%d shards: Shards = %d, Atoms = %d over %d nodes, want %d and %d over %d",
						k, p.Shards, p.Atoms, len(p.byNode), want, atoms, len(atomOf))
				}
				for node, a := range atomOf {
					if got := p.ShardOf(node); got != a%p.Shards {
						t.Fatalf("%d shards: node %d is on shard %d, its atom %d deals to %d", k, node.ID(), got, a, a%p.Shards)
					}
				}
			}
		})
	}
}
