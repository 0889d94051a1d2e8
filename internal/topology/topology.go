// Package topology builds the simulated data-center fabrics used in
// the paper's evaluation: the baseline 3-tier tree (160 hosts, 4 ToR
// switches, 2 aggregation switches, 1 core; 1 Gbps edge links and
// 10 Gbps fabric links; 4:1 oversubscription at the ToR uplink), the
// single-rack variants used by the intra-rack experiments, and the
// 10-node "testbed" configuration.
//
// Besides wiring nodes and installing static up/down routes, the
// package assigns every directed link an ID and level and can
// enumerate the links on the path between two hosts split into the
// source-up half and the destination-down half — exactly the structure
// PASE's bottom-up arbitration operates on (§3.1.2 of the paper).
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

// Config describes a tree fabric.
type Config struct {
	// Racks is the number of ToR switches. HostsPerRack hosts hang
	// off each.
	Racks        int
	HostsPerRack int
	// RacksPerAgg groups ToRs under aggregation switches. If Racks is
	// 1 the fabric is a single ToR and no agg/core layer is built.
	RacksPerAgg int

	EdgeRate   netem.BitRate // host <-> ToR
	FabricRate netem.BitRate // ToR <-> agg, agg <-> core

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
	// Spines is populated by BuildLeafSpine (leaf-spine fabrics).
	Spines []*netem.Switch

	Links []*Link

	// upLinks[h] lists host h's links toward the core, edge first.
	upLinks map[pkt.NodeID][]*Link
	// downLinks[h] lists the links from the core down to host h, in
	// top-down order.
	downLinks map[pkt.NodeID][]*Link
	// spineUp[rack][spine] / spineDown[rack][spine] hold the leaf-spine
	// mesh links (leaf-spine fabrics only).
	spineUp   map[int][]*Link
	spineDown map[int][]*Link
	// routes[rack] is each leaf's runtime ECMP route table (leaf-spine
	// fabrics only; nil on trees). lsLinks classifies the fabric mesh
	// links by (rack, spine, direction) for the routing control loop.
	routes  []*RouteTable
	lsLinks map[int]LeafSpineLink
}

// LeafSpineLink classifies one directed leaf-spine fabric link.
type LeafSpineLink struct {
	Rack  int
	Spine int
	// Up reports the leaf→spine direction (false = spine→leaf).
	Up bool
}

// LeafSpineLinkInfo classifies a link ID on a leaf-spine fabric;
// ok is false for host links and tree fabrics.
func (n *Network) LeafSpineLinkInfo(id int) (LeafSpineLink, bool) {
	l, ok := n.lsLinks[id]
	return l, ok
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
func (n *Network) SpineUpLinks(rack int) []*Link { return n.spineUp[rack] }

// SpineDownLinks returns the spine→leaf links toward rack, indexed by
// spine (leaf-spine fabrics only).
func (n *Network) SpineDownLinks(rack int) []*Link { return n.spineDown[rack] }

// Build wires the fabric described by cfg onto the engine.
func Build(eng *sim.Engine, cfg Config) *Network {
	if cfg.NewQueue == nil && cfg.NewQueueFor == nil {
		panic("topology: Config.NewQueue is required")
	}
	engOf := func(owner netem.Node) *sim.Engine {
		if cfg.EngineOf != nil {
			return cfg.EngineOf(owner)
		}
		return eng
	}
	queueFor := func(kind QueueKind, owner netem.Node) netem.Queue {
		if cfg.NewQueueFor != nil {
			return cfg.NewQueueFor(kind, owner)
		}
		return cfg.NewQueue(kind)
	}
	if cfg.Racks < 1 || cfg.HostsPerRack < 1 {
		panic("topology: need at least one rack and one host")
	}
	if cfg.Racks > 1 && (cfg.RacksPerAgg < 1 || cfg.Racks%cfg.RacksPerAgg != 0) {
		panic("topology: Racks must be a multiple of RacksPerAgg")
	}

	n := &Network{
		Eng:       eng,
		Cfg:       cfg,
		upLinks:   make(map[pkt.NodeID][]*Link),
		downLinks: make(map[pkt.NodeID][]*Link),
	}

	numHosts := cfg.Racks * cfg.HostsPerRack
	nextID := pkt.NodeID(0)
	for i := 0; i < numHosts; i++ {
		n.Hosts = append(n.Hosts, netem.NewHost(nextID, fmt.Sprintf("h%d", i)))
		nextID++
	}
	for r := 0; r < cfg.Racks; r++ {
		n.ToRs = append(n.ToRs, netem.NewSwitch(nextID, fmt.Sprintf("tor%d", r)))
		nextID++
	}
	multiTier := cfg.Racks > 1
	var numAggs int
	if multiTier {
		numAggs = cfg.Racks / cfg.RacksPerAgg
		for a := 0; a < numAggs; a++ {
			n.Aggs = append(n.Aggs, netem.NewSwitch(nextID, fmt.Sprintf("agg%d", a)))
			nextID++
		}
		n.Core = netem.NewSwitch(nextID, "core")
		nextID++
	}

	link := func(level Level, up bool, port *netem.Port, from, to netem.Node) *Link {
		l := &Link{ID: len(n.Links), Level: level, Up: up, Port: port, From: from, To: to}
		n.Links = append(n.Links, l)
		return l
	}

	// Host <-> ToR links.
	for r, tor := range n.ToRs {
		for j := 0; j < cfg.HostsPerRack; j++ {
			h := n.Hosts[r*cfg.HostsPerRack+j]
			hp := netem.NewPort(engOf(h), h, queueFor(QueueHostNIC, h), cfg.EdgeRate, cfg.LinkDelay)
			hp.Name = h.Name() + "->" + tor.Name()
			tp := netem.NewPort(engOf(tor), tor, queueFor(QueueSwitchDown, tor), cfg.EdgeRate, cfg.LinkDelay)
			tp.Name = tor.Name() + "->" + h.Name()
			netem.Connect(hp, tp)
			h.SetPort(hp)
			idx := tor.AddPort(tp)
			tor.SetRoute(h.ID(), idx)

			up := link(LevelHostToR, true, hp, h, tor)
			down := link(LevelHostToR, false, tp, tor, h)
			n.upLinks[h.ID()] = append(n.upLinks[h.ID()], up)
			n.downLinks[h.ID()] = append(n.downLinks[h.ID()], down)
		}
	}

	if multiTier {
		// ToR <-> Agg links.
		for r, tor := range n.ToRs {
			agg := n.Aggs[r/cfg.RacksPerAgg]
			tp := netem.NewPort(engOf(tor), tor, queueFor(QueueSwitchUp, tor), cfg.FabricRate, cfg.LinkDelay)
			tp.Name = tor.Name() + "->" + agg.Name()
			ap := netem.NewPort(engOf(agg), agg, queueFor(QueueSwitchDown, agg), cfg.FabricRate, cfg.LinkDelay)
			ap.Name = agg.Name() + "->" + tor.Name()
			netem.Connect(tp, ap)
			torUpIdx := tor.AddPort(tp)
			aggDownIdx := agg.AddPort(ap)

			up := link(LevelToRAgg, true, tp, tor, agg)
			down := link(LevelToRAgg, false, ap, agg, tor)

			for j := 0; j < cfg.HostsPerRack; j++ {
				h := n.Hosts[r*cfg.HostsPerRack+j]
				n.upLinks[h.ID()] = append(n.upLinks[h.ID()], up)
				// Will be prepended below the agg-core link later;
				// build order: we append and fix ordering at the end.
				n.downLinks[h.ID()] = append(n.downLinks[h.ID()], down)
				agg.SetRoute(h.ID(), aggDownIdx)
			}
			// Default route for foreign destinations from this ToR.
			for _, h := range n.Hosts {
				if h.ID()/pkt.NodeID(cfg.HostsPerRack) != pkt.NodeID(r) {
					tor.SetRoute(h.ID(), torUpIdx)
				}
			}
		}

		// Agg <-> Core links.
		for a, agg := range n.Aggs {
			ap := netem.NewPort(engOf(agg), agg, queueFor(QueueSwitchUp, agg), cfg.FabricRate, cfg.LinkDelay)
			ap.Name = agg.Name() + "->core"
			cp := netem.NewPort(engOf(n.Core), n.Core, queueFor(QueueSwitchDown, n.Core), cfg.FabricRate, cfg.LinkDelay)
			cp.Name = "core->" + agg.Name()
			netem.Connect(ap, cp)
			aggUpIdx := agg.AddPort(ap)
			coreDownIdx := n.Core.AddPort(cp)

			up := link(LevelAggCore, true, ap, agg, n.Core)
			down := link(LevelAggCore, false, cp, n.Core, agg)

			aggFirstHost := a * cfg.RacksPerAgg * cfg.HostsPerRack
			aggLastHost := (a+1)*cfg.RacksPerAgg*cfg.HostsPerRack - 1
			for _, h := range n.Hosts {
				inSubtree := int(h.ID()) >= aggFirstHost && int(h.ID()) <= aggLastHost
				if inSubtree {
					n.upLinks[h.ID()] = append(n.upLinks[h.ID()], up)
					n.downLinks[h.ID()] = append(n.downLinks[h.ID()], down)
					n.Core.SetRoute(h.ID(), coreDownIdx)
				} else {
					agg.SetRoute(h.ID(), aggUpIdx)
				}
			}
		}

		// downLinks were appended edge-first; the down half must read
		// top-down (core->agg, agg->tor, tor->host).
		for id, links := range n.downLinks {
			reverse(links)
			n.downLinks[id] = links
		}
	}

	return n
}

func reverse(ls []*Link) {
	for i, j := 0, len(ls)-1; i < j; i, j = i+1, j-1 {
		ls[i], ls[j] = ls[j], ls[i]
	}
}

// NumHosts returns the number of hosts in the fabric.
func (n *Network) NumHosts() int { return len(n.Hosts) }

// Host returns host i (also the host with NodeID i).
func (n *Network) Host(i int) *netem.Host { return n.Hosts[i] }

// RackOf returns the rack index of a host.
func (n *Network) RackOf(h pkt.NodeID) int { return int(h) / n.Cfg.HostsPerRack }

// AggOf returns the aggregation-switch index of a host (0 for
// single-rack fabrics).
func (n *Network) AggOf(h pkt.NodeID) int {
	if len(n.Aggs) == 0 {
		return 0
	}
	return n.RackOf(h) / n.Cfg.RacksPerAgg
}

// meetLevel returns how far up the tree a packet between two hosts
// must climb: 0 = same ToR, 1 = same agg (different ToR), 2 = via core.
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

// PathUp returns the links of the source-side half of the src->dst
// path: from src's NIC upward, ending at the meeting switch.
func (n *Network) PathUp(src, dst pkt.NodeID) []*Link {
	m := n.meetLevel(src, dst)
	return n.upLinks[src][:m+1]
}

// PathDown returns the links of the destination-side half, in
// top-down order starting just below the meeting switch.
func (n *Network) PathDown(src, dst pkt.NodeID) []*Link {
	m := n.meetLevel(src, dst)
	down := n.downLinks[dst]
	return down[len(down)-(m+1):]
}

// Path returns every directed link a packet from src to dst traverses,
// in traversal order.
func (n *Network) Path(src, dst pkt.NodeID) []*Link {
	up := n.PathUp(src, dst)
	down := n.PathDown(src, dst)
	out := make([]*Link, 0, len(up)+len(down))
	out = append(out, up...)
	out = append(out, down...)
	return out
}

// UpLinks returns all links from host h toward the core (edge first).
func (n *Network) UpLinks(h pkt.NodeID) []*Link { return n.upLinks[h] }

// DownLinks returns all links from the core down to host h (top-down).
func (n *Network) DownLinks(h pkt.NodeID) []*Link { return n.downLinks[h] }

// BaseRTT returns the zero-queueing round-trip time between two hosts,
// counting propagation only (serialization is load-dependent and small
// at these MTUs). On multipath fabrics every path between a pair has
// the same hop count, so the flow choice does not matter.
func (n *Network) BaseRTT(src, dst pkt.NodeID) sim.Duration {
	// Hops are counted without building the path: a leaf-spine pair is
	// host→leaf→host or host→leaf→spine→leaf→host, and a tree's halves
	// are sub-slices of the per-host link tables.
	var hops int
	switch {
	case !n.IsLeafSpine():
		hops = len(n.PathUp(src, dst)) + len(n.PathDown(src, dst))
	case n.RackOf(src) == n.RackOf(dst):
		hops = 2
	default:
		hops = 4
	}
	return sim.Duration(2*hops) * n.Cfg.LinkDelay
}

// QueueStatsTotal aggregates the queue counters of every port in the
// fabric (hosts and switches).
func (n *Network) QueueStatsTotal() netem.QueueStats {
	var total netem.QueueStats
	add := func(p *netem.Port) {
		s := p.Queue().Stats()
		total.Enqueued += s.Enqueued
		total.Dequeued += s.Dequeued
		total.Dropped += s.Dropped
		total.DroppedBytes += s.DroppedBytes
		total.EnqueuedData += s.EnqueuedData
		total.DroppedData += s.DroppedData
		total.EnqueuedCredit += s.EnqueuedCredit
		total.DroppedCredit += s.DroppedCredit
		total.Marked += s.Marked
		// MaxLen aggregates as the fabric-wide peak, not a sum: the
		// high-speed figure reads it as "deepest any queue ever got".
		if s.MaxLen > total.MaxLen {
			total.MaxLen = s.MaxLen
		}
	}
	for _, h := range n.Hosts {
		add(h.Port())
	}
	for _, sw := range n.ToRs {
		for _, p := range sw.Ports() {
			add(p)
		}
	}
	for _, sw := range n.Aggs {
		for _, p := range sw.Ports() {
			add(p)
		}
	}
	if n.Core != nil {
		for _, p := range n.Core.Ports() {
			add(p)
		}
	}
	for _, sw := range n.Spines {
		for _, p := range sw.Ports() {
			add(p)
		}
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
		s := h.Port().Queue().Stats()
		total.Enqueued += s.Enqueued
		total.Dequeued += s.Dequeued
		total.Dropped += s.Dropped
		total.DroppedBytes += s.DroppedBytes
		total.EnqueuedData += s.EnqueuedData
		total.DroppedData += s.DroppedData
		total.Marked += s.Marked
	}
	return total
}

// TxDataTotal sums transmitted packets across all ports; used with
// QueueStatsTotal for loss-rate metrics.
func (n *Network) TxDataTotal() int64 {
	var total int64
	for _, h := range n.Hosts {
		total += h.Port().TxPackets
	}
	for _, sw := range n.ToRs {
		for _, p := range sw.Ports() {
			total += p.TxPackets
		}
	}
	for _, sw := range n.Aggs {
		for _, p := range sw.Ports() {
			total += p.TxPackets
		}
	}
	if n.Core != nil {
		for _, p := range n.Core.Ports() {
			total += p.TxPackets
		}
	}
	for _, sw := range n.Spines {
		for _, p := range sw.Ports() {
			total += p.TxPackets
		}
	}
	return total
}
