package sim

// Ranked mode: cross-shard deterministic event ordering.
//
// The serial engine breaks timestamp ties with a single monotone seq
// counter — the global order of Schedule calls. A sharded run has no
// such global counter while shards execute concurrently, so ranked
// engines replace seq with a *schedule lineage*: every event records
// which event's execution scheduled it (ctx, a rank node standing for
// the parent event) and its call index within that execution (k).
// Comparing two lineages lexicographically — parent execution order
// first, then call index — reproduces the serial seq order exactly:
// the serial seq of an event is, by definition, the position of the
// Schedule call that created it, i.e. (execution position of its
// parent, call index), and execution position is itself (time, head,
// seq) — the same recursion. (It rests on events firing in key order,
// so the one schedule it cannot express is a plain event calling
// AtHead for its own instant: that child fires after an event it sorts
// before. No model component does; the samplers and arrival chains
// that use AtHead aim strictly later or run in head events.)
//
// Rank nodes are created lazily, only when an executing event actually
// schedules a child. To keep chains from pinning the whole history in
// memory, the sharded coordinator stamps every node created during a
// window with a global index (gidx) at the window barrier, in serial
// execution order, and drops the node's parent pointer: any later
// comparison between stamped nodes is a single integer compare. This is
// sound because windows partition simulated time — two rank nodes with
// equal timestamps belong to the same window and are therefore stamped
// together, so a comparison never needs to walk past a stamped node.
//
// Nodes are recycled, not garbage: each engine owns a slab-fed free
// list and a node counts its holders in refs — the calendar records
// whose ctx it is, the unstamped child nodes whose lineage runs through
// it, the executing event (curNode, or cur.ctx for its parent), its
// newRanks entry until the barrier stamps it, a buffered handoff. The
// last release returns it to its owner. No lock is needed because a
// node is touched only by its owner's goroutine, or by the coordinator
// while every worker is parked at the barrier; a handoff therefore
// never carries a pointer across shards (see ShardedEngine.deliver).
// Coordinator-built nodes have no owner, are read by every shard, and
// stay with the garbage collector.
type Rank struct {
	at   Time
	head bool
	refs int32
	ctx  *Rank // parent node; links the free list once released
	k    uint64
	// gidx, when nonzero, is the node's position in the global serial
	// execution order; ctx is nil once it is assigned.
	gidx  uint64
	owner *Engine
}

// rankFreed is the gidx of a released node on a checked engine: such a
// node is never reused, so any later comparison against it panics
// instead of silently reordering a tie.
const rankFreed = ^uint64(0)

// rankSlab is how many nodes an empty free list allocates at once.
const rankSlab = 64

// newRank takes a node off the engine's free list with one hold.
func (e *Engine) newRank() *Rank {
	if e.rankFree == nil {
		slab := make([]Rank, rankSlab)
		for i := range slab {
			slab[i].owner, slab[i].ctx = e, e.rankFree
			e.rankFree = &slab[i]
		}
	}
	n := e.rankFree
	e.rankFree, n.ctx = n.ctx, nil
	n.refs = 1
	e.rankLive++
	return n
}

// hold adds a holder; nil and ownerless nodes are not counted.
func (n *Rank) hold() *Rank {
	if n != nil && n.owner != nil {
		n.refs++
	}
	return n
}

// release drops one hold and returns the node to its owner's free list
// with the last. A node is stamped (ctx nil) before its newRanks hold
// goes, so a freed node never has a parent left to release.
func (n *Rank) release() {
	if n == nil || n.owner == nil {
		return
	}
	if n.refs--; n.refs > 0 {
		return
	}
	o := n.owner
	if n.refs < 0 || n.ctx != nil {
		panic("sim: rank node over-released")
	}
	o.rankLive--
	if o.chk != nil {
		n.gidx = rankFreed
		return
	}
	*n = Rank{owner: o, ctx: o.rankFree}
	o.rankFree = n
}

// rankLess orders two events by their schedule lineage: (c1, k1) and
// (c2, k2) are the events' (parent node, call index) pairs. A nil
// parent means the event was scheduled during setup (or injected by
// the coordinator with a setup slot); setup slots are globally ordered
// by k and precede every event-scheduled slot, mirroring how setup
// Schedule calls hold the smallest seq values in a serial run. Two
// distinct nodes with one gidx are a handed-off parent and its
// stand-ins: the same parent again.
func rankLess(c1 *Rank, k1 uint64, c2 *Rank, k2 uint64) bool {
	if c1 == c2 {
		return k1 < k2
	}
	if c1 == nil {
		return true
	}
	if c2 == nil {
		return false
	}
	if c1.gidx == rankFreed || c2.gidx == rankFreed {
		panic("sim: rank node compared after its last release")
	}
	if c1.gidx != 0 && c1.gidx == c2.gidx {
		return k1 < k2
	}
	return rankNodeLess(c1, c2)
}

// rankNodeLess orders two distinct rank nodes by the execution order
// of the events they stand for.
func rankNodeLess(a, b *Rank) bool {
	if a.gidx != 0 && b.gidx != 0 {
		return a.gidx < b.gidx
	}
	if a.at != b.at {
		return a.at < b.at
	}
	if a.head != b.head {
		return a.head
	}
	// Same instant, same head class: both nodes are from the current
	// (unstamped) window — windows partition time, so a stamped node
	// can never tie on (at, head) with an unstamped one and both
	// parent pointers are still live here. Recurse into the lineages.
	return rankLess(a.ctx, a.k, b.ctx, b.k)
}

// rankMeta carries the executing event's own coordinates while its
// callback runs (the event record itself is recycled before dispatch).
type rankMeta struct {
	at   Time
	head bool
	ctx  *Rank
	k    uint64
}

// EnableRank switches the engine into ranked mode. setupCtr is the
// shared setup-slot counter: every Schedule call made outside event
// execution (fabric construction, fault arming, stored arrival
// scheduling) draws one slot from it, so setup order is global across
// all shards exactly like serial setup seq order. Must be called
// before anything is scheduled.
func (e *Engine) EnableRank(setupCtr *uint64) {
	e.ranked = true
	e.setupCtr = setupCtr
}

// childSlot allocates the next (parent node, call index) pair for a
// Schedule call on this engine, with a hold on the node for whoever
// stores the pair. Outside event execution it burns a shared setup
// slot; inside, it lazily materializes the executing event's rank node
// and hands out consecutive call indices.
func (e *Engine) childSlot() (*Rank, uint64) {
	if !e.inEvent {
		k := *e.setupCtr
		*e.setupCtr++
		return nil, k
	}
	if e.curNode == nil {
		n := e.newRank() // the hold is curNode's, dropped after dispatch
		n.at, n.head, n.k = e.cur.at, e.cur.head, e.cur.k
		if e.tailGidx != nil {
			// Serial-tail mode: events execute in global order one at a
			// time, so the node's position is known immediately and no
			// lineage needs to be retained.
			*e.tailGidx++
			n.gidx = *e.tailGidx
		} else {
			// The event's hold on its parent becomes the node's.
			n.ctx, e.cur.ctx = e.cur.ctx, nil
			e.newRanks = append(e.newRanks, n.hold())
		}
		e.curNode = n
	}
	k := e.curK
	e.curK++
	return e.curNode.hold(), k
}

// ChildSlot exposes slot allocation for cross-shard handoff capture: a
// port proxy that replaces a local Schedule call with a buffered
// handoff must consume the same slot the Schedule would have, so the
// delivered event sorts exactly where the serial engine would have put
// it.
func (e *Engine) ChildSlot() (*Rank, uint64) {
	if !e.ranked {
		panic("sim: ChildSlot on an unranked engine")
	}
	return e.childSlot()
}

// InjectAt schedules fn at absolute time t carrying an explicit rank —
// the cross-shard injection primitive. The caller supplies the (ctx,
// k) pair captured on the source shard (or a coordinator-built node),
// so the event sorts against the destination shard's own events
// exactly as it would have in a serial run.
func (e *Engine) InjectAt(t Time, head bool, ctx *Rank, k uint64, fn func()) {
	e.inject(t, head, ctx, k, funcAction(fn), nil)
}

func (e *Engine) inject(t Time, head bool, ctx *Rank, k uint64, a Action, arg any) {
	if !e.ranked {
		panic("sim: InjectAt on an unranked engine")
	}
	if t < e.now {
		panic("sim: injecting event before now")
	}
	e.enqueue(t, a, arg, head, ctx.hold(), k)
}

// SetTailStamp switches node creation into immediate-stamp mode (see
// childSlot); ctr is the coordinator's global index counter. Pass nil
// to switch back.
func (e *Engine) SetTailStamp(ctr *uint64) { e.tailGidx = ctr }

// RunBefore executes every event with timestamp strictly below bound,
// then advances the clock to bound. It reports whether Stop was called
// (the run halts immediately after the stopping event). It is the
// per-window execution primitive of sharded runs: bound is the window
// end, and cross-shard lookahead guarantees no event below bound can
// still be injected.
func (e *Engine) RunBefore(bound Time) bool {
	e.stopped = false
	for !e.stopped {
		ev := e.peek()
		if ev == nil || ev.at >= bound {
			break
		}
		e.Step()
	}
	if e.now < bound {
		e.now = bound
	}
	return e.stopped
}

// NextEventKey returns the ordering key of the earliest live event, or
// ok=false when the calendar is empty. The sharded serial tail uses it
// to pick the globally least event across shards.
func (e *Engine) NextEventKey() (at Time, head bool, ctx *Rank, k uint64, ok bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false, nil, 0, false
	}
	return ev.at, ev.head, ev.ctx, ev.k, true
}

// Stopped reports whether Stop was called since the last Run variant
// started.
func (e *Engine) Stopped() bool { return e.stopped }

// AdvanceTo moves the clock forward to t without executing anything
// (no-op if the clock is already past t). The sharded runner uses it
// to align every shard clock on the latest one at the end of a run.
func (e *Engine) AdvanceTo(t Time) {
	if e.now < t {
		e.now = t
	}
}
