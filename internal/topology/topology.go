// Package topology builds the simulated data-center fabrics used in
// the paper's evaluation: the baseline 3-tier tree (160 hosts, 4 ToR
// switches, 2 aggregation switches, 1 core; 1 Gbps edge links and
// 10 Gbps fabric links; 4:1 oversubscription at the ToR uplink), the
// single-rack variants used by the intra-rack experiments, the
// 10-node "testbed" configuration, and — as an extension — leaf-spine
// fabrics, which one Config describes with Spines set.
//
// Besides wiring nodes and declaring each switch's structural route
// (the host range below it), the package assigns every directed link
// an ID and level by a fixed rule and reads the links on the path
// between two hosts from it, split into the source-up half and the
// destination-down half — exactly the structure PASE's bottom-up
// arbitration operates on (§3.1.2 of the paper).
package topology

import (
	"fmt"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// Level classifies a link by its position in the tree.
type Level int

// Link levels, counted from the edge.
const (
	LevelHostToR Level = iota // host <-> ToR
	LevelToRAgg               // ToR <-> aggregation
	LevelAggCore              // aggregation <-> core
)

func (l Level) String() string {
	switch l {
	case LevelHostToR:
		return "host-tor"
	case LevelToRAgg:
		return "tor-agg"
	case LevelAggCore:
		return "agg-core"
	case LevelToRSpine:
		return "tor-spine"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Link is one direction of a physical link, identified across the
// whole network. PASE attaches one arbitrator to each directed link.
type Link struct {
	ID    int
	Level Level
	// Up reports whether the link points toward the core.
	Up   bool
	Port *netem.Port
	// From and To are the attached nodes.
	From, To netem.Node
}

// Capacity returns the link's line rate.
func (l *Link) Capacity() netem.BitRate { return l.Port.Rate() }

func (l *Link) String() string {
	return fmt.Sprintf("link%d(%v %s)", l.ID, l.Level, map[bool]string{true: "up", false: "down"}[l.Up])
}

// QueueKind tells the queue factory what the queue will serve, letting
// experiments pick different disciplines per role.
type QueueKind int

// Queue roles.
const (
	QueueHostNIC    QueueKind = iota // host egress (NIC)
	QueueSwitchDown                  // switch egress toward hosts
	QueueSwitchUp                    // switch egress toward the core
)

// Config describes a fabric: a tree, or a leaf-spine when Spines is
// positive.
type Config struct {
	// Racks is the number of ToR (leaf) switches. HostsPerRack hosts
	// hang off each.
	Racks        int
	HostsPerRack int
	// RacksPerAgg groups a tree's ToRs under aggregation switches. If
	// Racks is 1 the tree is a single ToR and no agg/core layer is
	// built. A leaf-spine has no agg tier and leaves it 0.
	RacksPerAgg int
	// Spines, when positive, makes the fabric a leaf-spine: every
	// leaf connects to each of Spines spine switches and flows spread
	// across them by per-flow ECMP — the modern alternative to the
	// paper's single-path tree, included as an extension to show PASE's
	// arbitration generalizes beyond one path per host pair. 0 builds
	// a tree.
	Spines int

	EdgeRate   netem.BitRate // host <-> ToR
	FabricRate netem.BitRate // ToR <-> agg, agg <-> core, leaf <-> spine

	// LinkDelay is the one-way propagation delay of every link. The
	// paper's 300µs base RTT across the core corresponds to 25µs per
	// link (12 link traversals per round trip).
	LinkDelay sim.Duration

	// NewQueue builds the egress queue for each port role.
	NewQueue func(kind QueueKind) netem.Queue

	// EngineOf, when set, binds each node's ports to that node's shard
	// engine instead of the Build engine (sharded runs).
	EngineOf func(owner netem.Node) *sim.Engine
	// NewQueueFor, when set, overrides NewQueue with owner awareness so
	// sharded runs can instrument queues against per-shard registries.
	NewQueueFor func(kind QueueKind, owner netem.Node) netem.Queue
}

// Baseline returns the paper's simulation topology (§4.1) with the
// queue factory left to the caller.
func Baseline(newQueue func(QueueKind) netem.Queue) Config {
	return Config{
		Racks:        4,
		HostsPerRack: 40,
		RacksPerAgg:  2,
		EdgeRate:     netem.Gbps,
		FabricRate:   10 * netem.Gbps,
		LinkDelay:    25 * sim.Microsecond,
		NewQueue:     newQueue,
	}
}

// SingleRack returns an intra-rack topology with n hosts. The paper's
// 300µs figure is the cross-core RTT; within a rack the base RTT is
// 4 links × delay. We keep 25µs per link (100µs intra-rack RTT).
func SingleRack(n int, newQueue func(QueueKind) netem.Queue) Config {
	return Config{
		Racks:        1,
		HostsPerRack: n,
		RacksPerAgg:  1,
		EdgeRate:     netem.Gbps,
		FabricRate:   10 * netem.Gbps,
		LinkDelay:    25 * sim.Microsecond,
		NewQueue:     newQueue,
	}
}

// Testbed returns the paper's testbed configuration (§4.4): one rack
// of 10 nodes, 1 Gbps links, 250µs base RTT (62.5µs per link).
func Testbed(newQueue func(QueueKind) netem.Queue) Config {
	return Config{
		Racks:        1,
		HostsPerRack: 10,
		RacksPerAgg:  1,
		EdgeRate:     netem.Gbps,
		FabricRate:   netem.Gbps,
		LinkDelay:    sim.Duration(62.5 * float64(sim.Microsecond)),
		NewQueue:     newQueue,
	}
}

// Network is a built fabric.
type Network struct {
	Eng   *sim.Engine
	Cfg   Config
	Hosts []*netem.Host
	ToRs  []*netem.Switch
	Aggs  []*netem.Switch
	Core  *netem.Switch
	// Spines is populated on leaf-spine fabrics.
	Spines []*netem.Switch

	// Links is indexed by link ID, which Build assigns in wiring
	// order, up before down: host h's pair is 2h and 2h+1, then each
	// rack's pairs above it (Config.UplinkID), then each agg's.
	Links []*Link

	// routes[rack] is each leaf's runtime ECMP route table (leaf-spine
	// fabrics only; nil on trees).
	routes []*RouteTable
}

// LeafSpineLink classifies one directed leaf-spine fabric link.
type LeafSpineLink struct {
	Rack  int
	Spine int
	// Up reports the leaf→spine direction (false = spine→leaf).
	Up bool
}

// LeafSpineLinkInfo classifies a link ID on a leaf-spine fabric — the
// inverse of Config.UplinkID (a downlink's ID is its uplink's plus
// one); ok is false for host links and tree fabrics.
func (n *Network) LeafSpineLinkInfo(id int) (LeafSpineLink, bool) {
	k := id - 2*len(n.Hosts)
	if !n.IsLeafSpine() || k < 0 || id >= len(n.Links) {
		return LeafSpineLink{}, false
	}
	pair, spines := k/2, len(n.Spines)
	return LeafSpineLink{Rack: pair / spines, Spine: pair % spines, Up: k%2 == 0}, true
}

// RouteTable returns the runtime route table of a leaf (nil on tree
// fabrics).
func (n *Network) RouteTable(rack int) *RouteTable {
	if n.routes == nil {
		return nil
	}
	return n.routes[rack]
}

// fabric is a Network under construction: what the tree and the
// leaf-spine wiring share.
type fabric struct {
	*Network
	engOf    func(owner netem.Node) *sim.Engine
	queueFor func(kind QueueKind, owner netem.Node) netem.Queue
	// slab holds the fabric's Link records, one allocation sized from
	// the config; Links points into it.
	slab []Link
}

// newFabric starts a Network with its rack tier, which trees and
// leaf-spine fabrics wire alike: the hosts, one torKind switch of
// torPorts ports per rack, and the host links. links is the fabric's
// directed-link count.
func newFabric(eng *sim.Engine, cfg Config, torKind string, torPorts, links int) *fabric {
	hosts := cfg.Racks * cfg.HostsPerRack
	f := &fabric{
		Network: &Network{
			Eng: eng, Cfg: cfg,
			Hosts: make([]*netem.Host, hosts),
			ToRs:  make([]*netem.Switch, cfg.Racks),
			Links: make([]*Link, 0, links),
		},
		engOf:    func(netem.Node) *sim.Engine { return eng },
		queueFor: func(kind QueueKind, _ netem.Node) netem.Queue { return cfg.NewQueue(kind) },
		slab:     make([]Link, links),
	}
	if cfg.EngineOf != nil {
		f.engOf = cfg.EngineOf
	}
	if cfg.NewQueueFor != nil {
		f.queueFor = cfg.NewQueueFor
	}
	for r := range f.ToRs {
		tor := netem.NewSwitch(pkt.NodeID(hosts+r), torKind, r, torPorts)
		first := r * cfg.HostsPerRack
		tor.SetDown(pkt.NodeID(first), cfg.HostsPerRack, 1)
		for i := first; i < first+cfg.HostsPerRack; i++ {
			f.Hosts[i] = netem.NewHost(pkt.NodeID(i))
			f.connect(LevelHostToR, f.Hosts[i], tor, QueueHostNIC, cfg.EdgeRate)
		}
		f.ToRs[r] = tor
	}
	return f
}

// connect wires a full-duplex link between lower and the switch above
// it as the next two link IDs, up then down. Ports are added in call
// order, so a switch whose down links are connected first, in host
// order, has them at ports 0, 1, … — what SetDown's range rule needs.
func (f *fabric) connect(level Level, lower netem.Node, upper *netem.Switch, lowerKind QueueKind, rate netem.BitRate) {
	lp := netem.NewPort(f.engOf(lower), lower, f.queueFor(lowerKind, lower), rate, f.Cfg.LinkDelay)
	hp := netem.NewPort(f.engOf(upper), upper, f.queueFor(QueueSwitchDown, upper), rate, f.Cfg.LinkDelay)
	netem.Connect(lp, hp)
	switch lo := lower.(type) {
	case *netem.Host:
		lo.SetPort(lp)
	case *netem.Switch:
		lo.AddPort(lp)
	}
	upper.AddPort(hp)
	f.link(level, true, lp, lower, upper)
	f.link(level, false, hp, upper, lower)
}

func (f *fabric) link(level Level, up bool, port *netem.Port, from, to netem.Node) {
	l := &f.slab[len(f.Links)]
	*l = Link{ID: len(f.Links), Level: level, Up: up, Port: port, From: from, To: to}
	f.Links = append(f.Links, l)
}

// Build wires the fabric described by cfg onto the engine: a
// leaf-spine when cfg.Spines is positive, a tree otherwise.
func Build(eng *sim.Engine, cfg Config) *Network {
	if cfg.NewQueue == nil && cfg.NewQueueFor == nil {
		panic("topology: Config.NewQueue is required")
	}
	if cfg.Racks < 1 || cfg.HostsPerRack < 1 || cfg.Spines < 0 {
		panic("topology: need at least one rack and one host, and Spines >= 0")
	}
	switch {
	case cfg.Spines > 0:
		if cfg.RacksPerAgg != 0 {
			panic("topology: a leaf-spine (Spines > 0) has no aggregation tier: RacksPerAgg must be 0")
		}
		return buildLeafSpine(eng, cfg)
	case cfg.Racks == 1:
		return newFabric(eng, cfg, "tor", cfg.HostsPerRack, 2*cfg.HostsPerRack).Network
	case cfg.RacksPerAgg < 1 || cfg.Racks%cfg.RacksPerAgg != 0:
		panic("topology: Racks must be a multiple of RacksPerAgg")
	}
	hosts, aggs := cfg.Racks*cfg.HostsPerRack, cfg.Racks/cfg.RacksPerAgg
	perAgg := cfg.RacksPerAgg * cfg.HostsPerRack
	f := newFabric(eng, cfg, "tor", cfg.HostsPerRack+1, 2*(hosts+cfg.Racks+aggs))
	f.Aggs = make([]*netem.Switch, aggs)
	for a := range f.Aggs {
		f.Aggs[a] = netem.NewSwitch(pkt.NodeID(hosts+cfg.Racks+a), "agg", a, cfg.RacksPerAgg+1)
		f.Aggs[a].SetDown(pkt.NodeID(a*perAgg), perAgg, cfg.HostsPerRack)
	}
	f.Core = netem.NewSwitch(pkt.NodeID(hosts+cfg.Racks+aggs), "core", -1, aggs)
	f.Core.SetDown(0, hosts, perAgg)

	// Every switch's down ports are in place before its up port is
	// added: ToR <-> Agg links, then Agg <-> Core.
	for r, tor := range f.ToRs {
		tor.SetUp(len(tor.Ports()))
		f.connect(LevelToRAgg, tor, f.Aggs[r/cfg.RacksPerAgg], QueueSwitchUp, cfg.FabricRate)
	}
	for _, agg := range f.Aggs {
		agg.SetUp(len(agg.Ports()))
		f.connect(LevelAggCore, agg, f.Core, QueueSwitchUp, cfg.FabricRate)
	}
	return f.Network
}

// NumHosts returns the number of hosts in the fabric.
func (n *Network) NumHosts() int { return len(n.Hosts) }

// Host returns host i (also the host with NodeID i).
func (n *Network) Host(i int) *netem.Host { return n.Hosts[i] }

// RackOf returns the rack index of a host.
func (n *Network) RackOf(h pkt.NodeID) int { return int(h) / n.Cfg.HostsPerRack }

// AggOf returns the aggregation-switch index of a host (0 on fabrics
// without an agg tier: a single rack or a leaf-spine).
func (n *Network) AggOf(h pkt.NodeID) int {
	if len(n.Aggs) == 0 {
		return 0
	}
	return n.RackOf(h) / n.Cfg.RacksPerAgg
}

// meetLevel returns how far up the fabric a packet between two hosts
// must climb: 0 = same ToR, 1 = same agg (different ToR) or, on a
// leaf-spine, via a spine, 2 = via core.
func (n *Network) meetLevel(src, dst pkt.NodeID) int {
	switch {
	case n.RackOf(src) == n.RackOf(dst):
		return 0
	case n.AggOf(src) == n.AggOf(dst):
		return 1
	default:
		return 2
	}
}

// AppendPath appends flow's src->dst path, read from the link-ID rule
// (see Links), to path in traversal order and returns it with up, the
// length of the source half: src's NIC up to the meeting switch. A tree
// ignores flow; a leaf-spine crosses the spine the source leaf's route
// table picks for it. It allocates only when path lacks the room.
func (n *Network) AppendPath(path []*Link, src, dst pkt.NodeID, flow pkt.FlowID) ([]*Link, int) {
	l, cfg := n.Links, n.Cfg
	srcRack, dstRack := n.RackOf(src), n.RackOf(dst)
	switch n.meetLevel(src, dst) {
	case 0:
		return append(path, l[2*src], l[2*dst+1]), 1
	case 1:
		s := 0
		if n.IsLeafSpine() {
			s = n.routes[srcRack].Pick(dstRack, flow)
		}
		return append(path, l[2*src], l[cfg.UplinkID(srcRack, s)], l[cfg.UplinkID(dstRack, s)+1], l[2*dst+1]), 2
	}
	agg := 2 * (len(n.Hosts) + cfg.Racks) // the agg pairs follow the rack pairs
	return append(path, l[2*src], l[cfg.UplinkID(srcRack, 0)], l[agg+2*n.AggOf(src)],
		l[agg+2*n.AggOf(dst)+1], l[cfg.UplinkID(dstRack, 0)+1], l[2*dst+1]), 3
}

// BaseRTT returns the zero-queueing round-trip time between two hosts,
// counting propagation only (serialization is load-dependent and small
// at these MTUs). On multipath fabrics every path between a pair has
// the same hop count, so the flow choice does not matter.
func (n *Network) BaseRTT(src, dst pkt.NodeID) sim.Duration {
	// Hops are counted without building the path: each half climbs
	// meetLevel+1 links, on a leaf-spine as on a tree.
	hops := 2 * (n.meetLevel(src, dst) + 1)
	return sim.Duration(2*hops) * n.Cfg.LinkDelay
}

// QueueStatsTotal aggregates the queue counters of every port in the
// fabric (hosts and switches): each port is the egress of exactly one
// directed link.
func (n *Network) QueueStatsTotal() netem.QueueStats {
	var total netem.QueueStats
	for _, l := range n.Links {
		total.Add(l.Port.Queue().Stats())
	}
	return total
}

// HostQueueStats aggregates the queue counters of host NIC ports only.
// EnqueuedData+DroppedData at the NICs is the number of transmission
// attempts the transports made, the denominator of the paper's loss
// rate.
func (n *Network) HostQueueStats() netem.QueueStats {
	var total netem.QueueStats
	for _, h := range n.Hosts {
		total.Add(h.Port().Queue().Stats())
	}
	return total
}
