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
// an ID and level and can enumerate the links on the path between two
// hosts split into the source-up half and the destination-down half —
// exactly the structure PASE's bottom-up arbitration operates on
// (§3.1.2 of the paper).
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

	Links []*Link

	// levels is how many links a host has toward the top of the
	// fabric: treeLevels on a multi-rack tree, 1 on a single rack and
	// on leaf-spine fabrics (whose mesh hop is per flow).
	levels int
	// up[h*levels+i] is host h's i-th link toward the core, edge first;
	// down[h*levels+i] its i-th link from the core, top first. The
	// builder writes each slot once, in its final place.
	up, down []*Link
	// spineUp[rack*spines+s] / spineDown[rack*spines+s] hold the
	// leaf-spine mesh links (leaf-spine fabrics only).
	spineUp, spineDown []*Link
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

// SpineUpLinks returns rack's leaf→spine links indexed by spine
// (leaf-spine fabrics only).
func (n *Network) SpineUpLinks(rack int) []*Link { return row(n.spineUp, rack, len(n.Spines)) }

// SpineDownLinks returns the spine→leaf links toward rack, indexed by
// spine (leaf-spine fabrics only).
func (n *Network) SpineDownLinks(rack int) []*Link { return row(n.spineDown, rack, len(n.Spines)) }

// row returns row i of a flat table of width-wide rows, capped so an
// append by the caller cannot reach the next row.
func row(flat []*Link, i, width int) []*Link { return flat[i*width : (i+1)*width : (i+1)*width] }

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
// directed-link count, levels the Network field.
func newFabric(eng *sim.Engine, cfg Config, torKind string, torPorts, levels, links int) *fabric {
	hosts := cfg.Racks * cfg.HostsPerRack
	f := &fabric{
		Network: &Network{
			Eng: eng, Cfg: cfg, levels: levels,
			Hosts: make([]*netem.Host, hosts),
			ToRs:  make([]*netem.Switch, cfg.Racks),
			Links: make([]*Link, 0, links),
			up:    make([]*Link, hosts*levels),
			down:  make([]*Link, hosts*levels),
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
			f.up[i*levels], f.down[(i+1)*levels-1] = f.connect(LevelHostToR, f.Hosts[i], tor, QueueHostNIC, cfg.EdgeRate)
		}
		f.ToRs[r] = tor
	}
	return f
}

// connect wires a full-duplex link between lower and the switch above
// it and returns its two directions. Ports are added in call order, so
// a switch whose down links are connected first, in host order, has
// them at ports 0, 1, … — what Switch.SetDown's range rule relies on.
func (f *fabric) connect(level Level, lower netem.Node, upper *netem.Switch, lowerKind QueueKind, rate netem.BitRate) (up, down *Link) {
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
	return f.link(level, true, lp, lower, upper), f.link(level, false, hp, upper, lower)
}

func (f *fabric) link(level Level, up bool, port *netem.Port, from, to netem.Node) *Link {
	l := &f.slab[len(f.Links)]
	*l = Link{ID: len(f.Links), Level: level, Up: up, Port: port, From: from, To: to}
	f.Links = append(f.Links, l)
	return l
}

// treeLevels is a multi-rack tree's height in links: host-ToR, ToR-agg,
// agg-core.
const treeLevels = 3

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
		return newFabric(eng, cfg, "tor", cfg.HostsPerRack, 1, 2*cfg.HostsPerRack).Network
	case cfg.RacksPerAgg < 1 || cfg.Racks%cfg.RacksPerAgg != 0:
		panic("topology: Racks must be a multiple of RacksPerAgg")
	}
	hosts, aggs := cfg.Racks*cfg.HostsPerRack, cfg.Racks/cfg.RacksPerAgg
	perAgg := cfg.RacksPerAgg * cfg.HostsPerRack
	f := newFabric(eng, cfg, "tor", cfg.HostsPerRack+1, treeLevels, 2*(hosts+cfg.Racks+aggs))
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
		up, down := f.connect(LevelToRAgg, tor, f.Aggs[r/cfg.RacksPerAgg], QueueSwitchUp, cfg.FabricRate)
		for i := r * cfg.HostsPerRack; i < (r+1)*cfg.HostsPerRack; i++ {
			f.up[i*treeLevels+1], f.down[i*treeLevels+1] = up, down
		}
	}
	for a, agg := range f.Aggs {
		agg.SetUp(len(agg.Ports()))
		up, down := f.connect(LevelAggCore, agg, f.Core, QueueSwitchUp, cfg.FabricRate)
		for i := a * perAgg; i < (a+1)*perAgg; i++ {
			f.up[i*treeLevels+2], f.down[i*treeLevels] = up, down
		}
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

// PathUp returns the links of the source-side half of flow's src->dst
// path: from src's NIC upward, ending at the meeting switch. A tree
// has one path per pair and ignores flow; on a leaf-spine an
// inter-leaf half ends with the leaf→spine link the source leaf's
// route table picks for flow.
func (n *Network) PathUp(src, dst pkt.NodeID, flow pkt.FlowID) []*Link {
	up, meet := n.UpLinks(src), n.meetLevel(src, dst)
	if !n.IsLeafSpine() || meet == 0 {
		return up[:meet+1]
	}
	srcRack := n.RackOf(src)
	spine := n.routes[srcRack].Pick(n.RackOf(dst), flow)
	return []*Link{up[0], n.SpineUpLinks(srcRack)[spine]}
}

// PathDown returns the links of the destination-side half, in
// top-down order starting just below the meeting switch (flow as in
// PathUp).
func (n *Network) PathDown(src, dst pkt.NodeID, flow pkt.FlowID) []*Link {
	down, meet := n.DownLinks(dst), n.meetLevel(src, dst)
	if !n.IsLeafSpine() || meet == 0 {
		return down[len(down)-(meet+1):]
	}
	dstRack := n.RackOf(dst)
	spine := n.routes[n.RackOf(src)].Pick(dstRack, flow)
	return []*Link{n.SpineDownLinks(dstRack)[spine], down[0]}
}

// AppendPathFlow appends the flow-aware path from src to dst, in
// traversal order, to path and returns the extended slice. On tree
// fabrics it is PathUp then PathDown; on leaf-spine fabrics an
// inter-leaf flow climbs to the spine the source leaf's route table
// picks and back down. It allocates only when path lacks the room, so
// a caller that refills its own slice pays nothing per flow.
func (n *Network) AppendPathFlow(path []*Link, src, dst pkt.NodeID, flow pkt.FlowID) []*Link {
	if !n.IsLeafSpine() {
		return append(append(path, n.PathUp(src, dst, flow)...), n.PathDown(src, dst, flow)...)
	}
	path = append(path, n.UpLinks(src)...)
	if srcRack, dstRack := n.RackOf(src), n.RackOf(dst); srcRack != dstRack {
		spine := n.routes[srcRack].Pick(dstRack, flow)
		path = append(path, n.SpineUpLinks(srcRack)[spine], n.SpineDownLinks(dstRack)[spine])
	}
	return append(path, n.DownLinks(dst)...)
}

// UpLinks returns all links from host h toward the core (edge first).
func (n *Network) UpLinks(h pkt.NodeID) []*Link { return row(n.up, int(h), n.levels) }

// DownLinks returns all links from the core down to host h (top-down).
func (n *Network) DownLinks(h pkt.NodeID) []*Link { return row(n.down, int(h), n.levels) }

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
