package topology

import (
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// LevelToRSpine classifies leaf-spine fabric links (a ToR/leaf to one
// of the spines). Reuses the Level enumeration space after the tree
// levels.
const LevelToRSpine Level = LevelAggCore + 1

// DefaultLeafSpine returns a 4-leaf × 2-spine fabric with 10 hosts per
// leaf, 1 Gbps edges and 10 Gbps fabric links (2:1 oversubscription
// per leaf: 10 Gbps up-capacity for 10 Gbps of hosts... i.e. 1:2 of
// the tree's 4:1).
func DefaultLeafSpine(newQueue func(QueueKind) netem.Queue) Config {
	return Config{
		Racks:        4,
		HostsPerRack: 10,
		Spines:       2,
		EdgeRate:     netem.Gbps,
		FabricRate:   10 * netem.Gbps,
		LinkDelay:    25 * sim.Microsecond,
		NewQueue:     newQueue,
	}
}

// UplinkID returns the link ID Build assigns to rack's uplink toward
// spine (toward its agg on a tree, spine 0; the downlink is the next
// ID): the host pairs come first, two links per host, up before down,
// then each rack's pairs above it in (rack, spine) order. Fault plans
// use it to aim at fabric links before the network exists.
func (cfg Config) UplinkID(rack, spine int) int {
	return 2*cfg.Racks*cfg.HostsPerRack + 2*(rack*max(cfg.Spines, 1)+spine)
}

// buildLeafSpine wires a leaf-spine fabric. The returned Network
// reuses the tree Network type: leaves populate ToRs, spines populate
// Spines, and AppendPath dispatches on the fabric kind.
func buildLeafSpine(eng *sim.Engine, cfg Config) *Network {
	hosts, mesh := cfg.Racks*cfg.HostsPerRack, cfg.Racks*cfg.Spines
	f := newFabric(eng, cfg, "leaf", cfg.HostsPerRack+cfg.Spines, 2*(hosts+mesh))
	f.Spines = make([]*netem.Switch, cfg.Spines)
	for s := range f.Spines {
		// Spines know every host's leaf: their down ports are added in
		// leaf order below.
		f.Spines[s] = netem.NewSwitch(pkt.NodeID(hosts+cfg.Racks+s), "spine", s, cfg.Racks)
		f.Spines[s].SetDown(0, hosts, cfg.HostsPerRack)
	}
	f.routes = make([]*RouteTable, cfg.Racks)

	// Leaf <-> spine mesh with per-flow ECMP at the leaves.
	for r, leaf := range f.ToRs {
		spinePorts := make([]int, cfg.Spines)
		for s, spine := range f.Spines {
			spinePorts[s] = len(leaf.Ports())
			f.connect(LevelToRSpine, leaf, spine, QueueSwitchUp, cfg.FabricRate)
		}
		// Remote destinations route through the leaf's runtime ECMP
		// table; as built (clean, no failures) this is exactly the
		// ECMPSpine hash.
		rt := NewRouteTable(r, spinePorts, cfg.Racks)
		f.routes[r] = rt
		hostsPerLeaf := cfg.HostsPerRack
		leaf.FlowRoute = func(dst pkt.NodeID, flow pkt.FlowID) int {
			return rt.PickPort(int(dst)/hostsPerLeaf, flow)
		}
	}
	return f.Network
}

// ECMPSpine is the fabric-wide ECMP hash: flow id -> spine index.
// Exposed so the control plane arbitrates the same path the data
// plane uses.
func ECMPSpine(flow pkt.FlowID, spines int) int {
	h := uint64(flow) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return int(h % uint64(spines))
}

// IsLeafSpine reports whether the fabric is a leaf-spine.
func (n *Network) IsLeafSpine() bool { return len(n.Spines) > 0 }
