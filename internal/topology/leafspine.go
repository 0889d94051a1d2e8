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

// LeafSpineConfig describes a two-tier multipath fabric: every leaf
// (ToR) connects to every spine, and flows are spread across spines by
// per-flow ECMP hashing — the modern alternative to the paper's
// single-path tree, included as an extension to show PASE's
// arbitration generalizes beyond one path per host pair.
type LeafSpineConfig struct {
	Leaves       int
	Spines       int
	HostsPerLeaf int

	EdgeRate   netem.BitRate
	FabricRate netem.BitRate
	LinkDelay  sim.Duration

	NewQueue func(kind QueueKind) netem.Queue

	// EngineOf and NewQueueFor mirror Config's sharded-run hooks.
	EngineOf    func(owner netem.Node) *sim.Engine
	NewQueueFor func(kind QueueKind, owner netem.Node) netem.Queue
}

// DefaultLeafSpine returns a 4-leaf × 2-spine fabric with 10 hosts per
// leaf, 1 Gbps edges and 10 Gbps fabric links (2:1 oversubscription
// per leaf: 10 Gbps up-capacity for 10 Gbps of hosts... i.e. 1:2 of
// the tree's 4:1).
func DefaultLeafSpine(newQueue func(QueueKind) netem.Queue) LeafSpineConfig {
	return LeafSpineConfig{
		Leaves:       4,
		Spines:       2,
		HostsPerLeaf: 10,
		EdgeRate:     netem.Gbps,
		FabricRate:   10 * netem.Gbps,
		LinkDelay:    25 * sim.Microsecond,
		NewQueue:     newQueue,
	}
}

// UplinkID returns the link ID BuildLeafSpine assigns to the
// rack→spine uplink: host↔leaf pairs are wired first (two links per
// host, up before down), then the leaf↔spine mesh in (leaf, spine)
// order, up before down. Fault plans use it to aim at fabric links
// before the network exists.
func (cfg LeafSpineConfig) UplinkID(rack, spine int) int {
	return 2*cfg.Leaves*cfg.HostsPerLeaf + 2*(rack*cfg.Spines+spine)
}

// BuildLeafSpine wires a leaf-spine fabric. The returned Network
// reuses the tree Network type: leaves populate ToRs, spines populate
// Spines, and the flow-aware path methods dispatch on the fabric kind.
func BuildLeafSpine(eng *sim.Engine, cfg LeafSpineConfig) *Network {
	if cfg.NewQueue == nil && cfg.NewQueueFor == nil {
		panic("topology: LeafSpineConfig.NewQueue is required")
	}
	if cfg.Leaves < 1 || cfg.Spines < 1 || cfg.HostsPerLeaf < 1 {
		panic("topology: leaf-spine needs at least one leaf, spine and host")
	}
	hosts, mesh := cfg.Leaves*cfg.HostsPerLeaf, cfg.Leaves*cfg.Spines
	f := newFabric(eng, Config{
		Racks:        cfg.Leaves,
		HostsPerRack: cfg.HostsPerLeaf,
		EdgeRate:     cfg.EdgeRate,
		FabricRate:   cfg.FabricRate,
		LinkDelay:    cfg.LinkDelay,
		NewQueue:     cfg.NewQueue,
		EngineOf:     cfg.EngineOf,
		NewQueueFor:  cfg.NewQueueFor,
	}, "leaf", cfg.HostsPerLeaf+cfg.Spines, 1, 2*(hosts+mesh))
	f.Spines = make([]*netem.Switch, cfg.Spines)
	for s := range f.Spines {
		// Spines know every host's leaf: their down ports are added in
		// leaf order below.
		f.Spines[s] = netem.NewSwitch(pkt.NodeID(hosts+cfg.Leaves+s), "spine", s, cfg.Leaves)
		f.Spines[s].SetDown(0, hosts, cfg.HostsPerLeaf)
	}
	f.spineUp, f.spineDown = make([]*Link, mesh), make([]*Link, mesh)
	f.routes = make([]*RouteTable, cfg.Leaves)

	// Leaf <-> spine mesh with per-flow ECMP at the leaves.
	for r, leaf := range f.ToRs {
		spinePorts := make([]int, cfg.Spines)
		for s, spine := range f.Spines {
			spinePorts[s] = len(leaf.Ports())
			f.spineUp[r*cfg.Spines+s], f.spineDown[r*cfg.Spines+s] = f.connect(LevelToRSpine, leaf, spine, QueueSwitchUp, cfg.FabricRate)
		}
		// Remote destinations route through the leaf's runtime ECMP
		// table; as built (clean, no failures) this is exactly the
		// ECMPSpine hash.
		rt := NewRouteTable(r, spinePorts, cfg.Leaves)
		f.routes[r] = rt
		hostsPerLeaf := cfg.HostsPerLeaf
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

// IsLeafSpine reports whether the fabric was built by BuildLeafSpine.
func (n *Network) IsLeafSpine() bool { return len(n.Spines) > 0 }

// PathUpFlow is the flow-aware PathUp: identical to PathUp on tree
// fabrics; on leaf-spine fabrics the up half is the host uplink plus
// the ECMP-selected leaf→spine link (for inter-leaf flows).
func (n *Network) PathUpFlow(src, dst pkt.NodeID, flow pkt.FlowID) []*Link {
	if !n.IsLeafSpine() {
		return n.PathUp(src, dst)
	}
	hostUp := n.UpLinks(src)
	if n.RackOf(src) == n.RackOf(dst) {
		return hostUp
	}
	spine := n.routeSpine(n.RackOf(src), n.RackOf(dst), flow)
	out := make([]*Link, 0, 2)
	out = append(out, hostUp...)
	out = append(out, n.SpineUpLinks(n.RackOf(src))[spine])
	return out
}

// routeSpine resolves the spine carrying srcRack→dstRack traffic for a
// flow: the source leaf's route table when the fabric has one, the
// static ECMP hash otherwise.
func (n *Network) routeSpine(srcRack, dstRack int, flow pkt.FlowID) int {
	if n.routes != nil {
		return n.routes[srcRack].Pick(dstRack, flow)
	}
	return ECMPSpine(flow, len(n.Spines))
}

// PathDownFlow is the flow-aware PathDown (top-down order).
func (n *Network) PathDownFlow(src, dst pkt.NodeID, flow pkt.FlowID) []*Link {
	if !n.IsLeafSpine() {
		return n.PathDown(src, dst)
	}
	hostDown := n.DownLinks(dst)
	if n.RackOf(src) == n.RackOf(dst) {
		return hostDown
	}
	spine := n.routeSpine(n.RackOf(src), n.RackOf(dst), flow)
	out := make([]*Link, 0, 2)
	out = append(out, n.SpineDownLinks(n.RackOf(dst))[spine])
	out = append(out, hostDown...)
	return out
}

// AppendPathFlow appends the flow-aware path from src to dst, in
// traversal order, to path and returns the extended slice. On tree
// fabrics it is PathUp then PathDown; on leaf-spine fabrics an
// inter-leaf flow climbs to the spine its route picks (the source
// leaf's route table, or the static ECMP hash) and back down. It
// allocates only when path lacks the room, so a caller that refills
// its own slice pays nothing per flow.
func (n *Network) AppendPathFlow(path []*Link, src, dst pkt.NodeID, flow pkt.FlowID) []*Link {
	if !n.IsLeafSpine() {
		return append(append(path, n.PathUp(src, dst)...), n.PathDown(src, dst)...)
	}
	path = append(path, n.UpLinks(src)...)
	if srcRack, dstRack := n.RackOf(src), n.RackOf(dst); srcRack != dstRack {
		spine := n.routeSpine(srcRack, dstRack, flow)
		path = append(path, n.SpineUpLinks(srcRack)[spine], n.SpineDownLinks(dstRack)[spine])
	}
	return append(path, n.DownLinks(dst)...)
}
