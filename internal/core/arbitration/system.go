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
	"pase/internal/trace"
)

// pruneQueues is early pruning's cut-off: a flow a lower-level
// arbitrator maps below the top pruneQueues queues goes no higher (the
// paper finds the top two a good balance).
const pruneQueues = 2

// Params configures the control plane.
type Params struct {
	// NumQueues is the number of switch priority queues (Table 3: 8).
	NumQueues int
	// EarlyPruning stops a flow's arbitration climbing once a
	// lower-level arbitrator maps it below the top pruneQueues queues.
	EarlyPruning bool
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
	// whole-path allocations in a single serialized exchange. It runs
	// no hierarchy, so pase.Validate rejects it with LocalOnly or with
	// the hierarchy, delegation and pruning options.
	Central bool
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params {
	return Params{
		NumQueues:    8,
		EarlyPruning: true,
		Delegation:   true,
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

	// Rec, when set, records every arbitration half-exchange as a
	// control span, ones the fault injector killed included. Nil — the
	// default — records nothing.
	Rec *trace.Recorder

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

	// arbs holds the arbitrator of every physical link, indexed by link
	// ID (the topology numbers links densely from 0).
	arbs []*Arbitrator
	// slices, under flat delegation, holds per link ID the delegated
	// virtual slices of an agg-core link, one per rack under its agg
	// switch, indexed by the rack's offset within that agg (rack %
	// RacksPerAgg); other links hold none. Nil in the other arms.
	slices [][]*Arbitrator
	// entries feeds every arbitrator of the system; replyPool holds
	// the response records between Refresh and delivery. Neither is
	// capped: both are bounded by the flows in flight (times the links
	// a climb visits, for entries).
	entries   *EntryPool
	replyPool pool.List[reply]
	// upTree/downTree, when Hierarchy is enabled, are the directional
	// multi-level virtual aggregation trees that replace the flat
	// delegation above the access links.
	upTree, downTree *Tree
	// climb is the scratch stop list every refresh and release fills
	// (one system, one goroutine: a climb never outlives its caller).
	climb []stop
	// busyUntil, in the central arm, is when the controller drains the
	// requests it has queued.
	busyUntil sim.Time
	// nlevels is how many per-level instruments this configuration
	// can reach; deeper climbs clamp onto nlevels-1.
	nlevels int

	Stats Stats
}

// stop is one arbitrator a climb consults: the arbitrator, the
// control-hop depth reaching it costs (0 at the host-local access
// link), and whether it is a delegated slice. A slice is owned by the
// previous stop's arbitrator, so it costs no extra hop and carries that
// stop's depth.
type stop struct {
	arb       *Arbitrator
	depth     int
	delegated bool
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
		arbs:      make([]*Arbitrator, len(net.Links)),
		entries:   NewEntryPool(),
		replyPool: pool.New[reply](32, math.MaxInt32),
	}
	clock := sys.eng.Now
	baseRate := netem.BitRate(float64(pkt.MTU*8) / p.Epoch.Seconds())
	newArb := func(id int, capacity netem.BitRate) *Arbitrator {
		return NewArbitrator(id, capacity, p.NumQueues, baseRate, p.Epoch, clock).DrawFrom(sys.entries)
	}
	for _, l := range net.Links {
		sys.arbs[l.ID] = newArb(l.ID, l.Capacity())
	}
	sys.nlevels = CtrlLevels
	switch {
	case p.Central:
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
		sys.upTree = newTree(sys.entries, p.Hierarchy, racks, rackCap, topCap, p.NumQueues, baseRate, p.Epoch, clock, TreeUpIDBase)
		sys.downTree = newTree(sys.entries, p.Hierarchy, racks, rackCap, topCap, p.NumQueues, baseRate, p.Epoch, clock, TreeDownIDBase)
		sys.nlevels = sys.upTree.MaxDepth() + 1
		if sys.nlevels > MaxCtrlLevels {
			sys.nlevels = MaxCtrlLevels
		}
		if p.Delegation {
			sys.scheduleEpoch()
		}
	case p.Delegation && len(net.Aggs) > 0:
		// Flat delegation (§3.1.2): each rack's ToR arbitrator owns a
		// slice of every agg-core link of its agg switch, an equal split
		// until the first share refresh. Racks is a multiple of
		// RacksPerAgg, so every agg switch has RacksPerAgg racks.
		rpa := net.Cfg.RacksPerAgg
		sys.slices = make([][]*Arbitrator, len(net.Links))
		for _, l := range net.Links {
			if l.Level != topology.LevelAggCore {
				continue
			}
			kids := make([]*Arbitrator, rpa)
			for i := range kids {
				kids[i] = newArb(-l.ID, l.Capacity()/netem.BitRate(rpa))
			}
			sys.slices[l.ID] = kids
		}
		sys.scheduleEpoch()
	}
	return sys
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
	case sys.P.Central:
		sys.centralSync()
	case sys.upTree != nil:
		sys.upTree.RefreshShares(pruneQueues, sys.countMessages)
		sys.downTree.RefreshShares(pruneQueues, sys.countMessages)
	default:
		for id, kids := range sys.slices {
			// A crashed parent cannot answer share requests; children
			// keep their last shares until it restarts.
			if kids != nil && !sys.arbs[id].Down() {
				rebalance(sys.net.Links[id].Capacity(), kids, pruneQueues, sys.countMessages)
			}
		}
	}
	sys.scheduleEpoch()
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
// (arb/inflight_allocs, current + high-watermark), the fault outcome
// counters and the entries every arbitrator's allocation passes sort
// (arb/entries_sorted). A nil registry detaches (the default; every
// instrument is nil-safe).
func (sys *System) Instrument(reg *obs.Registry) {
	sorted := reg.Counter("arb/entries_sorted")
	sys.visit(-1, func(a *Arbitrator) { a.obsSorted = sorted })
	for d := 0; d < sys.nlevels; d++ {
		sys.o.rtt[d] = reg.Histogram(fmt.Sprintf("arb/rtt/level%d", d))
		sys.o.msgs[d] = reg.Counter(fmt.Sprintf("arb/msgs/level%d", d))
	}
	if sys.P.Central {
		sys.o.centralQ = reg.Histogram("arb/central/queue_ns")
	}
	sys.o.inflight = reg.Gauge("arb/inflight_allocs")
	sys.o.reqDrop = reg.Counter("arb/ctrl_req_dropped")
	sys.o.respDrop = reg.Counter("arb/ctrl_resp_dropped")
	sys.o.dead = reg.Counter("arb/ctrl_dead_arb")
}

// visit applies f to the arbitrator of the given link and its
// delegated slices; link -1 visits every arbitrator of the system,
// the deep hierarchy's included.
func (sys *System) visit(link int, f func(*Arbitrator)) {
	for id, a := range sys.arbs {
		if link != -1 && link != id {
			continue
		}
		f(a)
		if sys.slices != nil {
			for _, va := range sys.slices[id] {
				f(va)
			}
		}
	}
	if link == -1 && sys.upTree != nil {
		sys.upTree.ForEach(f)
		sys.downTree.ForEach(f)
	}
}

// AttachCheck installs a runtime invariant checker on every
// arbitrator of the system — physical links and delegated virtual
// slices alike. Nil detaches (the default).
func (sys *System) AttachCheck(c *check.Checker) {
	sys.visit(-1, func(a *Arbitrator) { a.AttachCheck(c) })
}

// Crash wipes the soft state of the arbitrator owning the given link
// (and any delegated virtual slices of it); -1 crashes every
// arbitrator in the fabric. Crashed arbitrators answer no requests
// until Restore.
func (sys *System) Crash(link int) { sys.visit(link, (*Arbitrator).Crash) }

// Restore brings crashed arbitrators back (empty); -1 restores all.
func (sys *System) Restore(link int) { sys.visit(link, (*Arbitrator).Restore) }

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
	// gen counts the record's lives: InitClient moves it on, so a reply
	// stamped in an earlier life lands on nothing.
	gen uint32

	// upPath is the src half bottom-up; dstClimb is the dst half in the
	// same bottom-up order (the reverse of the traversal order), computed
	// once here because every refresh and the release climb it. Both
	// share one array, which upPath's capacity spans.
	upPath   []*topology.Link
	dstClimb []*topology.Link

	haveSrc, haveDst bool
	srcHalf, dstHalf Decision

	released bool
	// OnUpdate, when set, fires with UpdateArg whenever a half-result
	// lands; the transport re-reads Combined.
	OnUpdate  sim.Action
	UpdateArg any
}

// NewClient creates the per-flow arbitration handle.
func (sys *System) NewClient(flow pkt.FlowID, src, dst pkt.NodeID) *Client {
	c := new(Client)
	sys.InitClient(c, flow, src, dst)
	return c
}

// InitClient starts c over, in place, as the handle of a new flow: it
// overwrites every field, refills the path into c's own backing array
// and moves the generation on. c must be new or released.
func (sys *System) InitClient(c *Client, flow pkt.FlowID, src, dst pkt.NodeID) {
	sys.Stats.Setups++
	sys.inflight++
	sys.o.inflight.Update(sys.inflight)
	path, up := sys.net.AppendPath(c.upPath[:0], src, dst, flow)
	slices.Reverse(path[up:])
	*c = Client{
		sys:      sys,
		flow:     flow,
		src:      src,
		dst:      dst,
		gen:      c.gen + 1,
		upPath:   path[:up],
		dstClimb: path[up:],
	}
}

// stops fills the system's scratch with the stops one half of the
// flow's path climbs, bottom-up, for whichever arm NewSystem
// configured:
//   - central: every physical link of both halves, in traversal order,
//     each at the controller's depth (the host's upward hop count);
//   - deep hierarchy: the access link, then the directional tree's
//     ClimbPath toward the peer's rack;
//   - flat: the access link, the ToR-agg link, then the agg-core link
//     or, with delegation, the ToR's slice of it.
//
// LocalOnly truncates the last two to the access link. A release walks
// the same stops as its refreshes.
func (c *Client) stops(srcSide bool) []stop {
	sys := c.sys
	s := sys.climb[:0]
	links, leaf, peer := c.upPath, c.src, c.dst
	if !srcSide {
		links, leaf, peer = c.dstClimb, c.dst, c.src
	}
	rack := sys.net.RackOf(leaf)
	switch tr := sys.treeFor(srcSide); {
	case sys.P.Central:
		hops := len(c.upPath)
		for _, l := range c.upPath {
			s = append(s, stop{arb: sys.arbs[l.ID], depth: hops})
		}
		for i := len(c.dstClimb) - 1; i >= 0; i-- {
			s = append(s, stop{arb: sys.arbs[c.dstClimb[i].ID], depth: hops})
		}
	case sys.P.LocalOnly:
		s = append(s, stop{arb: sys.arbs[links[0].ID]})
	case tr != nil && len(links) > 1:
		s = append(s, stop{arb: sys.arbs[links[0].ID]})
		s = tr.ClimbPath(s, c.flow, rack, sys.net.RackOf(peer), sys.P.Delegation)
	default:
		for i, l := range links {
			if sys.slices != nil && sys.P.Delegation && l.Level == topology.LevelAggCore {
				kid := sys.slices[l.ID][rack%sys.net.Cfg.RacksPerAgg]
				s = append(s, stop{arb: kid, depth: s[len(s)-1].depth, delegated: true})
				continue
			}
			s = append(s, stop{arb: sys.arbs[l.ID], depth: i})
		}
	}
	sys.climb = s
	return s
}

// treeFor picks the directional tree a half-exchange climbs (nil when
// the deep hierarchy is not configured).
func (sys *System) treeFor(srcSide bool) *Tree {
	if srcSide {
		return sys.upTree
	}
	return sys.downTree
}

// update registers the flow at each stop, bottom-up, and returns the
// worst decision met, the depth of the last stop reached, and whether
// a crashed arbitrator broke the climb. With prune set, early pruning
// stops the climb above the first stop once the flow has fallen out of
// the top pruneQueues queues; it saves two messages per hop between the
// depth reached and the last stop's.
func (c *Client) update(stops []stop, key int64, demand netem.BitRate, prune bool) (worst Decision, depth int, dead bool) {
	sys := c.sys
	worst = best
	for i, st := range stops {
		if i > 0 && prune && worst.Queue >= pruneQueues {
			sys.Stats.Pruned++
			sys.Stats.PruneSavedMsgs += int64(2 * (stops[len(stops)-1].depth - depth))
			break
		}
		if st.arb.Down() {
			// The bottom-up chain breaks here: arbitrators below kept
			// the update, the rest never hear of it, and no response
			// comes back until the crashed arbitrator restarts.
			return worst, depth, true
		}
		depth = st.depth
		if st.delegated {
			sys.Stats.Delegated++
		}
		worst = worst.worse(st.arb.Update(c.flow, key, demand))
	}
	return worst, depth, false
}

// best is the identity of worse: the top queue at an unbounded rate.
var best = Decision{Queue: 0, Rref: netem.BitRate(1 << 62)}

// worse merges two decisions: the lower-priority queue and the lower
// reference rate.
func (d Decision) worse(h Decision) Decision {
	return Decision{Queue: max(d.Queue, h.Queue), Rref: min(d.Rref, h.Rref)}
}

// reply is one arbitration response between the refresh that computed
// it and its delivery: a record per response, not a slot per client,
// because a delayed or queued response can still be in flight when the
// next refresh of the same half produces another.
type reply struct {
	c        *Client
	gen      uint32 // c's life the response answers
	d        Decision
	src, dst bool // the halves this response answers (central: both)
}

// respond schedules a response's delivery after the modelled latency.
func (sys *System) respond(c *Client, d Decision, src, dst bool, latency sim.Duration) {
	r := sys.replyPool.Take()
	*r = reply{c, c.gen, d, src, dst}
	sys.eng.ScheduleAction(latency, (*replyAction)(sys), r)
}

// replyAction delivers a response: the record goes back first, so the
// refresh OnUpdate may trigger finds it free. A response to a released
// flow, or to an earlier life of a reused client, changes nothing.
type replyAction System

func (a *replyAction) Fire(arg any) {
	r := arg.(*reply)
	c, gen, d, src, dst := r.c, r.gen, r.d, r.src, r.dst
	*r = reply{}
	(*System)(a).replyPool.Put(r)
	if c.released || c.gen != gen {
		return
	}
	if src {
		c.srcHalf, c.haveSrc = d, true
	}
	if dst {
		c.dstHalf, c.haveDst = d, true
	}
	if c.OnUpdate != nil {
		c.OnUpdate.Fire(c.UpdateArg)
	}
}

// Ready reports whether at least the source half has answered; the
// paper lets flows start on the child arbitrator's response without
// waiting for the destination half.
func (c *Client) Ready() bool { return c.haveSrc }

// Combined returns the flow's current (queue, reference rate): the
// lowest-priority queue and minimum rate over all arbitrated links.
func (c *Client) Combined() Decision {
	if !c.haveSrc && !c.haveDst {
		return Decision{Queue: int8(c.sys.P.NumQueues - 1), Rref: 0}
	}
	d := best
	if c.haveSrc {
		d = d.worse(c.srcHalf)
	}
	if c.haveDst {
		d = d.worse(c.dstHalf)
	}
	return d
}

// Refresh re-arbitrates both halves of the path with the flow's
// current criterion key and demand: one exchange per half, or one for
// both in the central arm. Results arrive asynchronously (control-plane
// latency) and trigger OnUpdate.
func (c *Client) Refresh(key int64, demand netem.BitRate) {
	if c.released {
		return
	}
	c.sys.Stats.Refreshes++
	if c.sys.P.Central {
		c.exchange(key, demand, true, true)
		return
	}
	c.exchange(key, demand, true, false)
	c.exchange(key, demand, false, true)
}

// exchange climbs the stops of the src half, the dst half or, in the
// central arm, both, and schedules the response after the modelled
// control latency. The central arm never prunes, always climbs the
// host's upward hop count to the controller, and waits in its queue.
func (c *Client) exchange(key int64, demand netem.BitRate, src, dst bool) {
	sys := c.sys
	stops := c.stops(src)

	// An exchange is remote when it crosses the network: the dst half
	// always does (the setup travels to the receiver and back); the src
	// half only when it climbs past the host-local access-link
	// arbitrator.
	start := sys.eng.Now()
	fi := sys.Faults
	remote := dst || len(stops) > 1
	if fi != nil && remote && fi.DropRequest() {
		// Request lost in the fabric; the endpoint retries.
		sys.o.reqDrop.Inc()
		sys.Rec.Ctrl(trace.CtrlSpan{Flow: c.flow, SrcSide: src, Start: start, Outcome: trace.CtrlReqDropped})
		return
	}

	worst, depth, dead := c.update(stops, key, demand, sys.P.EarlyPruning && !sys.P.Central)
	if sys.P.Central {
		depth = stops[0].depth
	}
	sys.countClimb(depth)
	if dead {
		sys.o.dead.Inc()
		sys.Rec.Ctrl(trace.CtrlSpan{Flow: c.flow, SrcSide: src, Level: depth, Start: start, Outcome: trace.CtrlDead})
		return
	}

	latency := sim.Duration(2*depth) * sys.P.CtrlPerHop
	switch {
	case sys.P.Central:
		latency = sys.centralLatency(start, depth)
	case dst:
		// The destination half is initiated by the receiver after the
		// setup reaches it and the result returns to the sender.
		latency += sim.Duration(len(c.upPath)+len(c.dstClimb)) * sys.net.Cfg.LinkDelay * 2
	}
	if fi != nil && remote {
		if fi.DropResponse() {
			// Response lost on the way back; the endpoint retries.
			sys.o.respDrop.Inc()
			sys.Rec.Ctrl(trace.CtrlSpan{Flow: c.flow, SrcSide: src, Level: depth, Start: start, Outcome: trace.CtrlRespDropped})
			return
		}
		latency += fi.CtrlExtraDelay()
	}
	sys.o.rtt[sys.lvl(depth)].Observe(int64(latency))
	sys.Rec.Ctrl(trace.CtrlSpan{Flow: c.flow, SrcSide: src, Level: depth, Start: start, Latency: latency, Outcome: trace.CtrlOK})
	sys.respond(c, worst, src, dst, latency)
}

// Release deregisters the flow everywhere (sent as one-way messages),
// walking the same stops as its refreshes: each half's, or in the
// central arm the one list of both.
func (c *Client) Release() {
	if c.released {
		return
	}
	c.released = true
	sys := c.sys
	sys.Stats.Releases++
	sys.inflight--
	sys.o.inflight.Update(sys.inflight)
	halves := [2]bool{true, false}
	n := len(halves)
	if sys.P.Central {
		n = 1
	}
	for _, srcSide := range halves[:n] {
		stops := c.stops(srcSide)
		// Releases are one-way and unacknowledged; a lost one leaves
		// remote entries to lease expiry. The src half's first stop
		// lives on the releasing host and is cleaned even so, unless
		// the controller holds it.
		remote := len(stops)
		if srcSide {
			remote--
		}
		lost := remote > 0 && sys.Faults != nil && sys.Faults.DropRequest()
		hops := 0
		for i, st := range stops {
			if lost && (i > 0 || !srcSide || sys.P.Central) {
				break
			}
			st.arb.Remove(c.flow)
			hops = st.depth
		}
		sys.countRelease(hops)
	}
}
