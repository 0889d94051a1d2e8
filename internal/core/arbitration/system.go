package arbitration

import (
	"fmt"
	"math"
	"slices"

	"pase/internal/check"
	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/pkt"
	"pase/internal/pool"
	"pase/internal/sim"
	"pase/internal/topology"
)

// Params configures the control plane.
type Params struct {
	// NumQueues is the number of switch priority queues (Table 3: 8).
	NumQueues int
	// EarlyPruning stops propagating a flow's arbitration upward once
	// a lower-level arbitrator maps it below the top PruneQueues
	// queues (the paper finds the top two a good balance).
	EarlyPruning bool
	PruneQueues  int8
	// Delegation lets ToR-level arbitrators manage virtual slices of
	// the agg-core links, cutting a hop off inter-rack arbitration.
	Delegation bool
	// LocalOnly restricts arbitration to the end hosts' own access
	// links (the Figure 12a ablation).
	LocalOnly bool
	// Epoch is the arbitration recomputation period and the virtual
	// link refresh interval; it should be on the order of the fabric
	// RTT.
	Epoch sim.Duration
	// CtrlPerHop is the one-way latency of one control-message hop
	// (propagation + serialization + processing).
	CtrlPerHop sim.Duration
	// Hierarchy, when enabled, replaces the flat agg-core delegation
	// with a configurable multi-level virtual aggregation tree (depth
	// log_FanOut(racks)) so fabrics far wider than one aggregation
	// tier still arbitrate in a handful of hops. The zero value keeps
	// the classic 3-tier climb.
	Hierarchy HierarchyParams
	// Central switches the control plane to the fully centralized
	// comparison arm: one controller behind the core computes
	// whole-path allocations in a single serialized exchange
	// (Hierarchy, delegation and pruning are ignored).
	Central bool
	// CentralPerRequest is the central controller's per-request
	// service time (0 = CentralPerRequestDefault).
	CentralPerRequest sim.Duration
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params {
	return Params{
		NumQueues:    8,
		EarlyPruning: true,
		PruneQueues:  2,
		Delegation:   true,
		LocalOnly:    false,
		Epoch:        300 * sim.Microsecond,
		CtrlPerHop:   30 * sim.Microsecond,
	}
}

// Stats counts control-plane overhead.
type Stats struct {
	// Messages is the number of per-hop arbitration messages
	// (requests, responses, releases and delegation updates).
	Messages int64
	// Bytes is Messages × the control message wire size.
	Bytes int64
	// Setups, Refreshes, Releases count client operations.
	Setups    int64
	Refreshes int64
	Releases  int64
	// Pruned counts refreshes stopped by early pruning before
	// reaching the next level.
	Pruned int64
	// Delegated counts climb stops resolved at a delegated virtual
	// slice instead of the parent arbitrator.
	Delegated int64
	// PruneSavedMsgs counts the messages early pruning avoided
	// (two per hop not climbed).
	PruneSavedMsgs int64
	// SyncMessages counts the centralized arm's per-epoch link-state
	// and allocation re-sync messages (included in Messages).
	SyncMessages int64
}

// ControlFaults lets a fault injector interfere with arbitration
// message exchanges. DropRequest / DropResponse are consulted once per
// remote half-exchange (host-local access-link arbitration exchanges no
// network messages and is immune); CtrlExtraDelay adds latency to each
// surviving response. All methods may draw from the injector's private
// RNG stream.
type ControlFaults interface {
	DropRequest() bool
	DropResponse() bool
	CtrlExtraDelay() sim.Duration
}

// CtrlOutcome classifies how one arbitration half-exchange ended.
type CtrlOutcome uint8

const (
	// CtrlOK: the request climbed the hierarchy and the response was
	// scheduled after the modelled latency.
	CtrlOK CtrlOutcome = iota
	// CtrlReqDropped: the fault injector lost the request leg.
	CtrlReqDropped
	// CtrlRespDropped: the fault injector lost the response leg.
	CtrlRespDropped
	// CtrlDeadArb: the bottom-up walk hit a crashed arbitrator.
	CtrlDeadArb
)

// CtrlEvent describes one arbitration half-exchange for observers:
// which flow asked, which half, how far up the hierarchy the request
// climbed (Level: 0 = resolved at the host-local arbitrator), when it
// started, the modelled response latency (0 unless CtrlOK) and how it
// ended. The flight recorder consumes these as control-plane spans.
type CtrlEvent struct {
	Flow    pkt.FlowID
	SrcSide bool
	Level   int
	Start   sim.Time
	Latency sim.Duration
	Outcome CtrlOutcome
}

// CtrlLevels bounds the per-level RTT histograms: Level is the hop
// count past the host-local arbitrator, at most 2 in a 3-tier fabric
// (host→ToR→agg→core), so 4 leaves headroom.
const CtrlLevels = 4

// MaxCtrlLevels caps the per-level instruments when a deep hierarchy
// is configured: a fan-out-4 tree over 2048 racks climbs 7 hops, so 8
// covers every supported depth (deeper climbs clamp onto the last
// level).
const MaxCtrlLevels = 8

// System is the fabric-wide arbitration control plane.
type System struct {
	P   Params
	net *topology.Network
	eng *sim.Engine

	// Faults, when set, injects control-plane message loss and delay.
	Faults ControlFaults

	// OnCtrl, when set, observes every arbitration half-exchange
	// (including ones the fault injector killed). Nil — the default —
	// costs one pointer test per refresh half.
	OnCtrl func(ev CtrlEvent)

	inflight int64 // live (not yet released) client allocations

	o struct {
		rtt      [MaxCtrlLevels]*obs.Histogram
		msgs     [MaxCtrlLevels]*obs.Counter
		centralQ *obs.Histogram
		inflight *obs.Gauge
		reqDrop  *obs.Counter
		respDrop *obs.Counter
		dead     *obs.Counter
	}

	// arbs maps topology link ID -> arbitrator for flows that consult
	// the real (non-delegated) link.
	arbs map[int]*Arbitrator
	// virt maps (physical agg-core link ID, rack) -> the delegated
	// virtual-slice arbitrator owned by that rack's ToR arbitrator.
	virt map[virtKey]*Arbitrator
	// delegated lists, in link-ID order, every delegated physical link
	// with its per-rack virtual arbitrators, for share refresh.
	delegated []delegation
	// entryPool feeds every arbitrator of the system; replyPool holds
	// the response records between Refresh and delivery. Neither is
	// capped: both are bounded by the flows in flight (times the links
	// a climb visits, for entries).
	entryPool pool.List[entry]
	replyPool pool.List[reply]
	// upTree/downTree, when Hierarchy is enabled, are the directional
	// multi-level virtual aggregation trees that replace the flat
	// delegation above the access links.
	upTree, downTree *Tree
	// climb is the scratch path every refresh and release climbs into
	// (one system, one goroutine: a climb never outlives its caller).
	climb []treeStep
	// central, when Central is set, is the single-controller arm.
	central *central
	// nlevels is how many per-level instruments this configuration
	// can reach; deeper climbs clamp onto nlevels-1.
	nlevels int

	Stats Stats
}

type virtKey struct {
	link int
	rack int
}

// delegation is one delegated agg-core link and the per-rack slices
// its capacity is split into.
type delegation struct {
	link *topology.Link
	kids []*Arbitrator
}

// NewSystem builds arbitrators for every directed link of the fabric
// and, when delegation is on, virtual-slice arbitrators for the
// agg-core links.
func NewSystem(net *topology.Network, p Params) *System {
	if p.NumQueues < 2 {
		panic("arbitration: NumQueues must be >= 2")
	}
	sys := &System{
		P:         p,
		net:       net,
		eng:       net.Eng,
		arbs:      make(map[int]*Arbitrator),
		virt:      make(map[virtKey]*Arbitrator),
		entryPool: pool.New[entry](32, math.MaxInt32),
		replyPool: pool.New[reply](32, math.MaxInt32),
	}
	clock := sys.eng.Now
	baseRate := func(sim.Duration) netem.BitRate {
		return netem.BitRate(float64(pkt.MTU*8) / p.Epoch.Seconds())
	}(p.Epoch)
	for _, l := range net.Links {
		sys.arbs[l.ID] = NewArbitrator(l.ID, l.Capacity(), p.NumQueues, baseRate, p.Epoch, clock).withPool(&sys.entryPool)
	}
	sys.nlevels = CtrlLevels
	switch {
	case p.Central:
		sys.central = &central{perReq: p.CentralPerRequest}
		if sys.central.perReq <= 0 {
			sys.central.perReq = CentralPerRequestDefault
		}
		sys.scheduleEpoch()
	case p.Hierarchy.Enabled() && !p.LocalOnly && net.Cfg.Racks > 1 && len(net.Aggs) > 0:
		// Deep hierarchy: two directional virtual aggregation trees
		// sized from the fabric — a rack contributes its uplink-tier
		// capacity, every aggregate is bounded by the core bisection.
		var rackCap, topCap netem.BitRate
		isAgg := make(map[netem.Node]bool, len(net.Aggs))
		for _, a := range net.Aggs {
			isAgg[a] = true
		}
		for _, l := range net.Links {
			if l.Level == topology.LevelToRAgg && rackCap == 0 {
				rackCap = l.Capacity()
			}
			if l.Level == topology.LevelAggCore && isAgg[l.From] {
				topCap += l.Capacity()
			}
		}
		racks := net.Cfg.Racks
		sys.upTree = newTree(&sys.entryPool, p.Hierarchy, racks, rackCap, topCap, p.NumQueues, baseRate, p.Epoch, clock, TreeUpIDBase)
		sys.downTree = newTree(&sys.entryPool, p.Hierarchy, racks, rackCap, topCap, p.NumQueues, baseRate, p.Epoch, clock, TreeDownIDBase)
		sys.nlevels = sys.upTree.MaxDepth() + 1
		if sys.nlevels > MaxCtrlLevels {
			sys.nlevels = MaxCtrlLevels
		}
		if p.Delegation {
			sys.scheduleEpoch()
		}
	case p.Delegation && len(net.Aggs) > 0:
		for _, l := range net.Links {
			if l.Level != topology.LevelAggCore {
				continue
			}
			racks := sys.racksUnderAggLink(l)
			share := netem.BitRate(int64(l.Capacity()) / int64(len(racks)))
			dg := delegation{link: l}
			for _, rack := range racks {
				va := NewArbitrator(-l.ID, share, p.NumQueues, baseRate, p.Epoch, clock).withPool(&sys.entryPool)
				sys.virt[virtKey{l.ID, rack}] = va
				dg.kids = append(dg.kids, va)
			}
			sys.delegated = append(sys.delegated, dg)
		}
		sys.scheduleEpoch()
	}
	return sys
}

// racksUnderAggLink lists the rack indices whose ToR arbitrators are
// children of the given agg-core link.
func (sys *System) racksUnderAggLink(l *topology.Link) []int {
	var agg int
	// Identify the aggregation switch on this link.
	for i, a := range sys.net.Aggs {
		if l.From == a || l.To == a {
			agg = i
			break
		}
	}
	var racks []int
	for r := 0; r < sys.net.Cfg.Racks; r++ {
		if r/sys.net.Cfg.RacksPerAgg == agg {
			racks = append(racks, r)
		}
	}
	return racks
}

// epochAction is the system's one periodic timer: each epoch it runs
// the share refresh of whichever arm NewSystem configured — the central
// controller's re-sync, the deep hierarchy's RefreshShares generalized
// to every level pair, or the flat agg-core delegation of §3.1.2.
type epochAction System

func (sys *System) scheduleEpoch() {
	sys.eng.ScheduleAction(sys.P.Epoch, (*epochAction)(sys), nil)
}

func (a *epochAction) Fire(any) {
	sys := (*System)(a)
	switch {
	case sys.central != nil:
		sys.centralSync()
	case sys.upTree != nil:
		sys.upTree.RefreshShares(sys.P.PruneQueues, sys.countMessages)
		sys.downTree.RefreshShares(sys.P.PruneQueues, sys.countMessages)
	default:
		for _, dg := range sys.delegated {
			// A crashed parent cannot answer share requests; children
			// keep their last shares until it restarts.
			if !sys.arbs[dg.link.ID].Down() {
				rebalance(dg.link.Capacity(), dg.kids, sys.P.PruneQueues, sys.countMessages)
			}
		}
	}
	sys.scheduleEpoch()
}

// treeFor picks the directional tree a half-exchange climbs (nil when
// the deep hierarchy is not configured).
func (sys *System) treeFor(srcSide bool) *Tree {
	if srcSide {
		return sys.upTree
	}
	return sys.downTree
}

func (sys *System) countMessages(n int64) {
	sys.Stats.Messages += n
	sys.Stats.Bytes += n * pkt.CtrlSize
}

// countClimb charges one climb's request/response pair per hop and
// attributes them to the per-level message counters.
func (sys *System) countClimb(depth int) {
	sys.countMessages(int64(2 * depth))
	for d := 1; d <= depth; d++ {
		sys.o.msgs[sys.lvl(d)].Add(2)
	}
}

// countRelease charges a one-way release cascade of the given depth.
func (sys *System) countRelease(hops int) {
	sys.countMessages(int64(hops))
	for d := 1; d <= hops; d++ {
		sys.o.msgs[sys.lvl(d)].Add(1)
	}
}

// lvl clamps a climb depth onto the registered per-level instruments.
func (sys *System) lvl(d int) int {
	if d >= sys.nlevels {
		return sys.nlevels - 1
	}
	return d
}

// Instrument attaches control-plane observability to the system: the
// arbitration round-trip log2-histograms split by hierarchy level
// (arb/rtt/level<d>, nanoseconds), the live-allocation gauge
// (arb/inflight_allocs, current + high-watermark) and the fault
// outcome counters. A nil registry detaches (the default; every
// instrument is nil-safe).
func (sys *System) Instrument(reg *obs.Registry) {
	for d := 0; d < sys.nlevels; d++ {
		sys.o.rtt[d] = reg.Histogram(fmt.Sprintf("arb/rtt/level%d", d))
		sys.o.msgs[d] = reg.Counter(fmt.Sprintf("arb/msgs/level%d", d))
	}
	if sys.central != nil {
		sys.o.centralQ = reg.Histogram("arb/central/queue_ns")
	}
	sys.o.inflight = reg.Gauge("arb/inflight_allocs")
	sys.o.reqDrop = reg.Counter("arb/ctrl_req_dropped")
	sys.o.respDrop = reg.Counter("arb/ctrl_resp_dropped")
	sys.o.dead = reg.Counter("arb/ctrl_dead_arb")
}

// emitCtrl hands one half-exchange to the observer hook.
func (sys *System) emitCtrl(ev CtrlEvent) {
	if sys.OnCtrl != nil {
		sys.OnCtrl(ev)
	}
}

// AttachCheck installs a runtime invariant checker on every
// arbitrator of the system — physical links and delegated virtual
// slices alike. Nil detaches (the default).
func (sys *System) AttachCheck(c *check.Checker) {
	for _, a := range sys.arbs {
		a.AttachCheck(c)
	}
	for _, va := range sys.virt {
		va.AttachCheck(c)
	}
	if sys.upTree != nil {
		sys.upTree.AttachCheck(c)
		sys.downTree.AttachCheck(c)
	}
}

// Crash wipes the soft state of the arbitrator owning the given link
// (and any delegated virtual slices of it); -1 crashes every
// arbitrator in the fabric. Crashed arbitrators answer no requests
// until Restore.
func (sys *System) Crash(link int) {
	if link == -1 {
		for _, a := range sys.arbs {
			a.Crash()
		}
		for _, va := range sys.virt {
			va.Crash()
		}
		if sys.upTree != nil {
			sys.upTree.Crash()
			sys.downTree.Crash()
		}
		return
	}
	if a := sys.arbs[link]; a != nil {
		a.Crash()
	}
	for k, va := range sys.virt {
		if k.link == link {
			va.Crash()
		}
	}
}

// Restore brings crashed arbitrators back (empty); -1 restores all.
func (sys *System) Restore(link int) {
	if link == -1 {
		for _, a := range sys.arbs {
			a.Restore()
		}
		for _, va := range sys.virt {
			va.Restore()
		}
		if sys.upTree != nil {
			sys.upTree.Restore()
			sys.downTree.Restore()
		}
		return
	}
	if a := sys.arbs[link]; a != nil {
		a.Restore()
	}
	for k, va := range sys.virt {
		if k.link == link {
			va.Restore()
		}
	}
}

// Arbitrator exposes the per-link arbitrator, so end-host tests can
// check that finished flows leave no arbitration state behind.
func (sys *System) Arbitrator(linkID int) *Arbitrator { return sys.arbs[linkID] }

// Client is the per-flow handle the PASE transport uses to obtain and
// refresh its priority queue and reference rate.
type Client struct {
	sys  *System
	flow pkt.FlowID
	src  pkt.NodeID
	dst  pkt.NodeID

	// upPath is the src half bottom-up; dstClimb is the dst half in the
	// same bottom-up order (the reverse of the traversal order), computed
	// once here because every refresh and the release climb it.
	upPath   []*topology.Link
	dstClimb []*topology.Link

	haveSrc, haveDst bool
	srcHalf, dstHalf Decision

	released bool
	// OnUpdate is invoked whenever a half-result lands; the transport
	// re-reads Combined.
	OnUpdate func()
}

// NewClient creates the per-flow arbitration handle.
func (sys *System) NewClient(flow pkt.FlowID, src, dst pkt.NodeID) *Client {
	sys.Stats.Setups++
	sys.inflight++
	sys.o.inflight.Update(sys.inflight)
	dstClimb := slices.Clone(sys.net.PathDownFlow(src, dst, flow))
	slices.Reverse(dstClimb)
	return &Client{
		sys:      sys,
		flow:     flow,
		src:      src,
		dst:      dst,
		upPath:   sys.net.PathUpFlow(src, dst, flow),
		dstClimb: dstClimb,
	}
}

// reply is one arbitration response between the refresh that computed
// it and its delivery: a record per response, not a slot per client,
// because a delayed or queued response can still be in flight when the
// next refresh of the same half produces another.
type reply struct {
	c        *Client
	d        Decision
	src, dst bool // the halves this response answers (central: both)
}

// respond schedules a response's delivery after the modelled latency.
func (sys *System) respond(c *Client, d Decision, src, dst bool, latency sim.Duration) {
	r := sys.replyPool.Take()
	*r = reply{c, d, src, dst}
	sys.eng.ScheduleAction(latency, (*replyAction)(sys), r)
}

// replyAction delivers a response: the record goes back first, so the
// refresh OnUpdate may trigger finds it free.
type replyAction System

func (a *replyAction) Fire(arg any) {
	r := arg.(*reply)
	c, d, src, dst := r.c, r.d, r.src, r.dst
	*r = reply{}
	(*System)(a).replyPool.Put(r)
	if c.released {
		return
	}
	if src {
		c.srcHalf, c.haveSrc = d, true
	}
	if dst {
		c.dstHalf, c.haveDst = d, true
	}
	if c.OnUpdate != nil {
		c.OnUpdate()
	}
}

// Ready reports whether at least the source half has answered; the
// paper lets flows start on the child arbitrator's response without
// waiting for the destination half.
func (c *Client) Ready() bool { return c.haveSrc }

// Combined returns the flow's current (queue, reference rate): the
// lowest-priority queue and minimum rate over all arbitrated links.
func (c *Client) Combined() Decision {
	d := Decision{Queue: 0, Rref: netem.BitRate(1 << 62)}
	merge := func(h Decision) {
		if h.Queue > d.Queue {
			d.Queue = h.Queue
		}
		if h.Rref < d.Rref {
			d.Rref = h.Rref
		}
	}
	if c.haveSrc {
		merge(c.srcHalf)
	}
	if c.haveDst {
		merge(c.dstHalf)
	}
	if !c.haveSrc && !c.haveDst {
		return Decision{Queue: int8(c.sys.P.NumQueues - 1), Rref: 0}
	}
	return d
}

// Refresh re-arbitrates both halves of the path with the flow's
// current criterion key and demand. Results arrive asynchronously
// (control-plane latency) and trigger OnUpdate.
func (c *Client) Refresh(key int64, demand netem.BitRate) {
	if c.released {
		return
	}
	c.sys.Stats.Refreshes++
	if c.sys.central != nil {
		c.refreshCentral(key, demand)
		return
	}
	c.refreshHalf(key, demand, true)
	c.refreshHalf(key, demand, false)
}

// refreshHalf walks one half bottom-up, applying early pruning and
// delegation, and schedules the result delivery after the modelled
// control latency.
func (c *Client) refreshHalf(key int64, demand netem.BitRate, srcSide bool) {
	sys := c.sys
	p := sys.P

	// Bottom-up link order for this half.
	links := c.upPath
	if !srcSide {
		links = c.dstClimb
	}

	leaf := c.src
	if !srcSide {
		leaf = c.dst
	}
	rack := sys.net.RackOf(leaf)

	// A half is remote when the exchange crosses the network: the dst
	// half always does (the setup travels to the receiver and back);
	// the src half only when arbitration may climb past the host-local
	// access-link arbitrator.
	start := sys.eng.Now()
	fi := sys.Faults
	remote := !srcSide || (!p.LocalOnly && len(links) > 1)
	if fi != nil && remote && fi.DropRequest() {
		// Request lost in the fabric; the endpoint retries.
		sys.o.reqDrop.Inc()
		sys.emitCtrl(CtrlEvent{Flow: c.flow, SrcSide: srcSide, Start: start, Outcome: CtrlReqDropped})
		return
	}

	worst := Decision{Queue: 0, Rref: netem.BitRate(1 << 62)}
	merge := func(h Decision) {
		if h.Queue > worst.Queue {
			worst.Queue = h.Queue
		}
		if h.Rref < worst.Rref {
			worst.Rref = h.Rref
		}
	}

	depth := 0 // how many hops up the arbitration traveled
	pruned := false
	dead := false
	if tr := sys.treeFor(srcSide); tr != nil && len(links) > 1 {
		// Deep-hierarchy climb: the physical access link first, then
		// the directional virtual aggregation tree toward the peer's
		// rack, pruning before every step exactly like the flat walk.
		a := sys.arbs[links[0].ID]
		if a.Down() {
			dead = true
		} else {
			merge(a.Update(c.flow, key, demand))
			other := c.dst
			if !srcSide {
				other = c.src
			}
			steps := tr.ClimbPath(sys.climb, c.flow, rack, sys.net.RackOf(other), p.Delegation)
			sys.climb = steps
			full := steps[len(steps)-1].depth
			for _, st := range steps {
				if p.EarlyPruning && worst.Queue >= p.PruneQueues {
					pruned = true
					sys.Stats.PruneSavedMsgs += int64(2 * (full - depth))
					break
				}
				if st.arb.Down() {
					dead = true
					break
				}
				depth = st.depth
				if st.delegated {
					sys.Stats.Delegated++
				}
				merge(st.arb.Update(c.flow, key, demand))
			}
		}
	} else {
		for i, l := range links {
			if i > 0 && p.LocalOnly {
				break
			}
			if i > 0 && p.EarlyPruning && worst.Queue >= p.PruneQueues {
				pruned = true
				sys.Stats.PruneSavedMsgs += int64(2 * (len(links) - 1 - depth))
				break
			}
			if p.Delegation && l.Level == topology.LevelAggCore {
				// The ToR arbitrator (depth 1) owns a virtual slice; no
				// extra hop.
				va := sys.virt[virtKey{l.ID, rack}]
				if va != nil {
					if va.Down() {
						dead = true
						break
					}
					sys.Stats.Delegated++
					merge(va.Update(c.flow, key, demand))
					continue
				}
			}
			a := sys.arbs[l.ID]
			if a.Down() {
				// The bottom-up chain breaks here: arbitrators below kept
				// the update, the rest never hear of it, and no response
				// comes back until the crashed arbitrator restarts.
				dead = true
				break
			}
			if i > 0 {
				depth = i // host->ToR is hop 1, ToR->agg hop 2
			}
			merge(a.Update(c.flow, key, demand))
		}
	}
	if pruned {
		sys.Stats.Pruned++
	}
	sys.countClimb(depth)
	if dead {
		sys.o.dead.Inc()
		sys.emitCtrl(CtrlEvent{Flow: c.flow, SrcSide: srcSide, Level: depth, Start: start, Outcome: CtrlDeadArb})
		return
	}

	latency := sim.Duration(2*depth) * p.CtrlPerHop
	if !srcSide {
		// The destination half is initiated by the receiver after the
		// setup reaches it and the result returns to the sender.
		latency += sim.Duration(len(c.upPath)+len(c.dstClimb)) * sys.net.Cfg.LinkDelay * 2
	}
	if fi != nil && remote {
		if fi.DropResponse() {
			// Response lost on the way back; the endpoint retries.
			sys.o.respDrop.Inc()
			sys.emitCtrl(CtrlEvent{Flow: c.flow, SrcSide: srcSide, Level: depth, Start: start, Outcome: CtrlRespDropped})
			return
		}
		latency += fi.CtrlExtraDelay()
	}
	sys.o.rtt[sys.lvl(depth)].Observe(int64(latency))
	sys.emitCtrl(CtrlEvent{Flow: c.flow, SrcSide: srcSide, Level: depth, Start: start, Latency: latency, Outcome: CtrlOK})
	sys.respond(c, worst, srcSide, !srcSide, latency)
}

// Release deregisters the flow everywhere (sent as one-way messages).
func (c *Client) Release() {
	if c.released {
		return
	}
	c.released = true
	c.sys.Stats.Releases++
	c.sys.inflight--
	c.sys.o.inflight.Update(c.sys.inflight)
	if c.sys.central != nil {
		c.releaseCentral()
		return
	}
	remove := func(links []*topology.Link, leaf pkt.NodeID, localFirst bool) {
		rack := c.sys.net.RackOf(leaf)
		// Releases are one-way and unacknowledged; a lost one leaves
		// remote entries to lease expiry (the host-local arbitrator is
		// always cleaned). localFirst marks the half whose first link
		// lives on the releasing host.
		lost := false
		if fi := c.sys.Faults; fi != nil {
			n := len(links)
			if localFirst {
				n--
			}
			lost = n > 0 && fi.DropRequest()
		}
		hops := 0
		if tr := c.sys.treeFor(localFirst); tr != nil && len(links) > 1 {
			// Deep hierarchy: the release mirrors the climb path, so
			// every arbitrator a refresh could have registered with is
			// cleaned (localFirst == srcSide for both halves).
			if !lost || localFirst {
				c.sys.arbs[links[0].ID].Remove(c.flow)
			}
			if !lost {
				other := c.dst
				if leaf == c.dst {
					other = c.src
				}
				c.sys.climb = tr.ClimbPath(c.sys.climb, c.flow, rack, c.sys.net.RackOf(other), c.sys.P.Delegation)
				for _, st := range c.sys.climb {
					st.arb.Remove(c.flow)
					hops = st.depth
				}
			}
		} else {
			for i, l := range links {
				if lost && !(localFirst && i == 0) {
					continue
				}
				if va := c.sys.virt[virtKey{l.ID, rack}]; c.sys.P.Delegation && l.Level == topology.LevelAggCore && va != nil {
					va.Remove(c.flow)
					continue
				}
				if i > 0 {
					hops = i
				}
				c.sys.arbs[l.ID].Remove(c.flow)
			}
		}
		c.sys.countRelease(hops)
	}
	remove(c.upPath, c.src, true)
	remove(c.dstClimb, c.dst, false)
}
