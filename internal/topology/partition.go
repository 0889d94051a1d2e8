package topology

import (
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// Partition assigns every fabric node to a shard for sharded runs.
// The indivisible unit is an *atom*: a rack (its hosts plus the
// ToR/leaf switch — host<->ToR links are the latency-critical edge
// hops and never cross shards) or a single upper-tier switch (agg,
// core, spine). Atoms are dealt round-robin onto shards, so one shard
// per rack is the natural maximum degree of parallelism; asking for
// more shards than atoms silently clamps.
type Partition struct {
	// Shards is the effective shard count, min(requested, atoms).
	Shards int
	// Atoms is the fabric's atom count — the parallelism ceiling.
	Atoms int

	byNode []int // NodeID -> shard
}

// ShardOf returns the shard a node is assigned to.
func (p *Partition) ShardOf(n netem.Node) int { return p.byNode[n.ID()] }

// ShardOfID returns the shard of the node with the given ID.
func (p *Partition) ShardOfID(id pkt.NodeID) int { return p.byNode[id] }

// PartitionFabric maps the fabric cfg describes onto at most shards
// shards. Atoms: rack r (its hosts and ToR/leaf) -> atom r, then each
// upper-tier switch — a multi-rack tree's aggs and core, or the
// spines — one atom each. Build numbers nodes hosts, ToRs, then the
// upper tier, so a switch's atom is its NodeID less the host count.
func PartitionFabric(cfg Config, shards int) *Partition {
	hosts, upper := cfg.Racks*cfg.HostsPerRack, cfg.Spines
	if upper == 0 && cfg.Racks > 1 {
		upper = cfg.Racks/cfg.RacksPerAgg + 1
	}
	atoms := cfg.Racks + upper
	shards = max(min(shards, atoms), 1)
	byNode := make([]int, hosts+atoms)
	for id := range byNode {
		atom := id - hosts
		if id < hosts {
			atom = id / cfg.HostsPerRack
		}
		byNode[id] = atom % shards
	}
	return &Partition{Shards: shards, Atoms: atoms, byNode: byNode}
}

// CutLinks enumerates the directed links whose endpoints live on
// different shards and returns the minimum one-way propagation delay
// among them — the causality lower bound a sharded run uses as its
// conservative lookahead. ok is false when nothing is cut (a
// single-shard partition).
func (p *Partition) CutLinks(n *Network) (cut []*Link, minDelay sim.Duration, ok bool) {
	for _, l := range n.Links {
		if p.ShardOf(l.From) == p.ShardOf(l.To) {
			continue
		}
		d := l.Port.PropDelay()
		if !ok || d < minDelay {
			minDelay = d
		}
		ok = true
		cut = append(cut, l)
	}
	return cut, minDelay, ok
}
