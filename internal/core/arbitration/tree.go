package arbitration

import (
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// HierarchyParams configure the generalized multi-level arbitration
// hierarchy. The zero value disables it, leaving the classic 3-tier
// climb (host → ToR → agg-core, with flat per-rack delegation slices)
// in charge.
type HierarchyParams struct {
	// FanOut is the number of level-(lv-1) aggregation nodes grouped
	// under one level-lv node. Values below 2 disable the tree.
	FanOut int
	// TopShards splits the root aggregation node into this many
	// replicated shard arbitrators, each owning an equal slice of the
	// core capacity; flows hash onto a shard. 0 or 1 keeps a single
	// root.
	TopShards int
}

// Enabled reports whether the multi-level tree should be built.
func (h HierarchyParams) Enabled() bool { return h.FanOut >= 2 }

// Tree is one direction (up toward the core, or down from it) of the
// virtual aggregation hierarchy: level 0 holds one node per rack, each
// higher level groups FanOut children, and the root covers the whole
// fabric. Parents that delegate own one virtual slice per child, so a
// refresh that meets its peer under a common ancestor stops one level
// early at the slice — the same hop-saving trick as the flat
// agg-core delegation, applied recursively.
//
// Tree is deliberately constructible without a topology.Network so the
// unit suite and the fuzz target can drive it directly.
type Tree struct {
	fanOut int
	shards int
	racks  int

	// levels[lv] are the aggregation arbitrators of level lv, index i
	// covering racks [i·FanOut^lv, (i+1)·FanOut^lv). The last level is
	// the root: a single node, or `shards` replicated shard nodes.
	levels [][]*Arbitrator
	// slices is shaped like levels: slices[lv][i] is the delegated
	// virtual slice of its parent that node i of level lv owns, so one
	// parent's slices are a contiguous run. The root's row is empty, and
	// so is the row under a sharded root, which delegates nothing (its
	// children would each need a slice of every shard).
	slices [][]*Arbitrator

	topCap netem.BitRate
}

// Link-ID bases keep tree arbitrator labels (used by the invariant
// checker) disjoint from physical links, flat virtual slices (negative
// physical IDs) and the opposite direction's tree.
const (
	treeLevelStride = 1 << 16
	// TreeUpIDBase / TreeDownIDBase seed the synthetic link IDs of the
	// two directional trees.
	TreeUpIDBase   = 1 << 24
	TreeDownIDBase = 1 << 25
)

// newTree builds one directional aggregation tree over `racks` racks,
// every arbitrator drawing its entries from entries (nil = standalone
// arbitrators: the allocator, and a scratch of their own). rackCap is
// the capacity a single rack's uplink tier contributes; topCap bounds
// every aggregate (the core's bisection in that direction).
// numQueues/baseRate/period/clock configure the embedded arbitrators
// exactly like physical ones.
func newTree(entries *EntryPool, h HierarchyParams, racks int, rackCap, topCap netem.BitRate, numQueues int, baseRate netem.BitRate, period sim.Duration, clock func() sim.Time, idBase int) *Tree {
	if !h.Enabled() || racks < 1 {
		return nil
	}
	shards := h.TopShards
	if shards < 1 {
		shards = 1
	}
	t := &Tree{
		fanOut: h.FanOut,
		shards: shards,
		racks:  racks,
		topCap: topCap,
	}
	// Level sizes: racks, ceil(racks/F), ... , 1.
	sizes := []int{racks}
	for n := racks; n > 1; {
		n = (n + h.FanOut - 1) / h.FanOut
		sizes = append(sizes, n)
	}
	root := len(sizes) - 1
	for lv, n := range sizes {
		if lv == root && root > 0 && shards > 1 {
			// Replicated root: `shards` arbitrators, each an equal
			// slice of the top capacity, flows hashed across them.
			row := make([]*Arbitrator, shards)
			for s := range row {
				id := idBase + lv*treeLevelStride + s
				row[s] = NewArbitrator(id, topCap/netem.BitRate(shards), numQueues, baseRate, period, clock).DrawFrom(entries)
			}
			t.levels = append(t.levels, row)
			continue
		}
		row := make([]*Arbitrator, n)
		for i := range row {
			id := idBase + lv*treeLevelStride + i
			row[i] = NewArbitrator(id, t.nodeCap(lv, i, rackCap), numQueues, baseRate, period, clock).DrawFrom(entries)
		}
		t.levels = append(t.levels, row)
	}
	// Delegated slices: every non-sharded parent hands each child a
	// virtual slice sized by an equal split (the share refresh resizes
	// them to demand).
	t.slices = make([][]*Arbitrator, len(t.levels))
	for lv := 1; lv <= root; lv++ {
		if lv == root && shards > 1 {
			break
		}
		row := make([]*Arbitrator, len(t.levels[lv-1]))
		for c := range row {
			p := c / h.FanOut
			share := t.levels[lv][p].Capacity() / netem.BitRate(len(t.under(t.levels[lv-1], p)))
			id := -(idBase + lv*treeLevelStride + c)
			row[c] = NewArbitrator(id, share, numQueues, baseRate, period, clock).DrawFrom(entries)
		}
		t.slices[lv-1] = row
	}
	return t
}

// nodeCap sizes a level-lv aggregate: the racks it covers can never
// push more than their combined uplink capacity, and the core never
// carries more than topCap.
func (t *Tree) nodeCap(lv, idx int, rackCap netem.BitRate) netem.BitRate {
	span := t.span(lv)
	lo := idx * span
	hi := lo + span
	if hi > t.racks {
		hi = t.racks
	}
	c := rackCap * netem.BitRate(hi-lo)
	if c > t.topCap {
		c = t.topCap
	}
	return c
}

// span is the number of racks one level-lv node covers (FanOut^lv).
func (t *Tree) span(lv int) int {
	s := 1
	for i := 0; i < lv; i++ {
		s *= t.fanOut
	}
	return s
}

// under returns the run of a child-level row (nodes or slices) that
// sits under parent p.
func (t *Tree) under(row []*Arbitrator, p int) []*Arbitrator {
	return row[p*t.fanOut : min((p+1)*t.fanOut, len(row))]
}

// MaxDepth is the control-hop depth of a full, non-delegated climb to
// the root (the access link is depth 0, level-0 nodes depth 1).
func (t *Tree) MaxDepth() int { return len(t.levels) }

// ShardOf hashes a flow onto a root shard.
func (t *Tree) ShardOf(flow pkt.FlowID) int {
	return int((uint64(flow) * 0x9e3779b97f4a7c15 >> 33) % uint64(t.shards))
}

// meetLevel is the lowest level whose node covers both racks — the
// LCA of the two leaves. Root covers everything, so the search always
// terminates there.
func (t *Tree) meetLevel(a, b int) int {
	root := len(t.levels) - 1
	for lv, span := 1, t.fanOut; lv <= root; lv, span = lv+1, span*t.fanOut {
		if a/span == b/span {
			return lv
		}
	}
	return root
}

// ClimbPath enumerates the arbitrators a refresh from rack `a` toward
// rack `b` consults above the access link, bottom-up: the level-0
// node of rack a (depth 1), then each ancestor until the meet level.
// With delegation on, the final (meet-level) stop resolves at the
// child-owned slice of the meet ancestor instead — same depth as the
// stop before it, two messages cheaper — unless the meet is the
// sharded root, which delegates nothing and is picked by flow hash.
// Release mirrors the same path, so every registration is removed
// where it was made. The path is appended to steps — callers on the
// refresh path pass a scratch slice so a climb allocates nothing.
func (t *Tree) ClimbPath(steps []stop, flow pkt.FlowID, a, b int, delegation bool) []stop {
	root := len(t.levels) - 1
	steps = append(steps, stop{arb: t.levels[0][a], depth: 1})
	if a == b || root == 0 {
		return steps
	}
	m := t.meetLevel(a, b)
	span := 1 // FanOut^(lv-1) inside the loop
	for lv := 1; lv <= m; lv++ {
		atRoot := lv == root
		if lv == m && delegation && !(atRoot && t.shards > 1) {
			steps = append(steps, stop{arb: t.slices[lv-1][a/span], depth: lv, delegated: true})
			break
		}
		idx := a / (span * t.fanOut)
		if atRoot && t.shards > 1 {
			idx = t.ShardOf(flow)
		}
		steps = append(steps, stop{arb: t.levels[lv][idx], depth: lv + 1})
		span *= t.fanOut
	}
	return steps
}

// RefreshShares resizes every delegated slice in proportion to its
// top-queue demand (§3.1.2 generalized to every level) and rebalances
// the root shards the same way. count, when non-nil, is charged the
// two control messages each busy parent/child exchange costs.
func (t *Tree) RefreshShares(prune int8, count func(int64)) {
	root := len(t.levels) - 1
	for lv := 1; lv <= root; lv++ {
		if lv == root && t.shards > 1 {
			break
		}
		for p, parent := range t.levels[lv] {
			if parent.Down() {
				continue
			}
			rebalance(parent.Capacity(), t.under(t.slices[lv-1], p), prune, count)
		}
	}
	if root > 0 && t.shards > 1 {
		rebalance(t.topCap, t.levels[root], prune, count)
	}
}

// rebalance redistributes capTotal over the given arbitrators in
// proportion to their aggregate top-queue demand, with a 10% floor so
// a quiet child can restart quickly. Idle groups exchange nothing.
func rebalance(capTotal netem.BitRate, kids []*Arbitrator, prune int8, count func(int64)) {
	if len(kids) == 0 {
		return
	}
	busy := false
	for _, k := range kids {
		if k.Flows() > 0 {
			busy = true
			break
		}
	}
	if !busy {
		return
	}
	var sum netem.BitRate
	for _, k := range kids {
		k.published = k.AggregateTopDemand(prune - 1)
		sum += k.published
	}
	for _, k := range kids {
		if sum == 0 {
			k.SetCapacity(capTotal / netem.BitRate(len(kids)))
		} else {
			// Float math: the product of two multi-gigabit rates
			// overflows int64.
			share := netem.BitRate(float64(capTotal) * float64(k.published) / float64(sum))
			floor := capTotal / netem.BitRate(10*len(kids))
			if share < floor {
				share = floor
			}
			k.SetCapacity(share)
		}
		if count != nil {
			// Child publishes aggregates, parent returns shares.
			count(2)
		}
	}
}

// ForEach visits every arbitrator of the tree — nodes, shards and
// delegated slices.
func (t *Tree) ForEach(f func(*Arbitrator)) {
	for _, rows := range [2][][]*Arbitrator{t.levels, t.slices} {
		for _, row := range rows {
			for _, a := range row {
				f(a)
			}
		}
	}
}
