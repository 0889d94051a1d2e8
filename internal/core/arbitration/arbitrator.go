// Package arbitration implements PASE's scalable control plane: one
// arbitrator per directed link runs Algorithm 1 of the paper, mapping
// each flow to a priority queue and a reference rate from the demands
// of the flows ahead of it; a per-fabric System organizes arbitrators
// into the bottom-up hierarchy with the paper's two overhead
// optimizations, early pruning and delegation.
package arbitration

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pase/internal/check"
	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/pkt"
	"pase/internal/pool"
	"pase/internal/sim"
)

// Decision is the output of Algorithm 1 for one flow on one link.
type Decision struct {
	// Queue is the priority class (0 = highest, NumQueues-1 = bottom).
	Queue int8
	// Rref is the reference rate.
	Rref netem.BitRate
}

// entry is one flow's state at an arbitrator.
type entry struct {
	flow pkt.FlowID
	// key is the scheduling criterion: remaining size for SJF or the
	// absolute deadline for EDF. Lower is more urgent.
	key int64
	// key2 orders equal keys, and is the byte count whose drain time
	// Early Start adds up: PDQ's remaining size. PASE leaves it 0.
	key2   int64
	demand netem.BitRate
	// lease is the time after which the entry is garbage; refreshes
	// extend it.
	lease sim.Time

	decision Decision
}

// leaseEpochs is how many epochs an entry outlives its last update.
const leaseEpochs = 8

// entryFreed is the lease of an entry returned under the invariant
// checker: such a record never circulates again, so an allocation pass
// that still reaches it is reading a stale pointer and reports it.
const entryFreed sim.Time = -1 << 62

// Arbitrator runs Algorithm 1 for one directed link. To keep the cost
// of arbitration linear in the number of flows rather than quadratic,
// allocations for all registered flows are recomputed in one sorted
// pass per epoch (the refresh interval); lookups between epochs serve
// the cached decision. Newly registered flows get an immediate
// incremental computation so flow setup never waits for an epoch edge.
type Arbitrator struct {
	// LinkID identifies the (possibly virtual) link this arbitrator
	// owns.
	LinkID int

	capacity netem.BitRate
	baseRate netem.BitRate
	// horizon is PDQ's Early Start window for the current pass; 0
	// (PASE) turns Early Start off.
	horizon sim.Duration

	clock func() sim.Time

	// entries is made at the first registration: most links of a
	// large fabric never carry a flow.
	entries map[pkt.FlowID]*entry
	// sorted is the sort scratch a pass refills from entries and reads
	// only inside that pass: its EntryPool's, or a standalone
	// arbitrator's own, made at its first pass.
	sorted *[]*entry
	// pool is the free list of the EntryPool the arbitrator draws
	// from; nil on a standalone arbitrator, whose entries come from and
	// go back to the allocator.
	pool   *pool.List[entry]
	epoch  sim.Time // when the current allocation pass happened
	period sim.Duration

	// published is the top-queue aggregate this arbitrator last reported
	// to its delegating parent (rebalance's per-child scratch).
	published netem.BitRate

	numQueues int32
	// down marks a crashed arbitrator: soft state is gone and requests
	// go unanswered until Restore.
	down bool

	chk      *check.Checker
	chkLabel string
	// obsSorted counts the entries each allocation pass sorts
	// (arb/entries_sorted); nil-safe.
	obsSorted *obs.Counter
}

// NewArbitrator builds an arbitrator for a link of the given capacity.
// period is the epoch length (typically one fabric RTT); baseRate is
// the one-packet-per-RTT floor handed to flows that do not fit the top
// queue. Period 0 recomputes on every request and grants no lease.
func NewArbitrator(linkID int, capacity netem.BitRate, numQueues int, baseRate netem.BitRate, period sim.Duration, clock func() sim.Time) *Arbitrator {
	if numQueues < 2 {
		panic("arbitration: need at least two priority queues")
	}
	return &Arbitrator{
		LinkID:    linkID,
		capacity:  capacity,
		numQueues: int32(numQueues),
		baseRate:  baseRate,
		clock:     clock,
		period:    period,
	}
}

// EntryPool is the entry free list and sort scratch that a set of
// arbitrators on one goroutine share: every arbitrator of a System, or
// PDQ's per-link ones. Its list is not capped: it is bounded by the
// flows in flight times the links each registers on.
type EntryPool struct {
	free pool.List[entry]
	// sorted serves every pass of the set: no pass runs inside another.
	sorted []*entry
}

// NewEntryPool returns an empty entry pool.
func NewEntryPool() *EntryPool {
	return &EntryPool{free: pool.New[entry](32, math.MaxInt32)}
}

// DrawFrom makes a draw its entries from p and sort them in p's
// scratch, and returns a. A nil p leaves a standalone.
func (a *Arbitrator) DrawFrom(p *EntryPool) *Arbitrator {
	if p != nil {
		a.pool, a.sorted = &p.free, &p.sorted
	}
	return a
}

// release returns a deregistered or expired entry to the pool. Under the
// invariant checker it is poisoned and retired instead.
func (a *Arbitrator) release(e *entry) {
	if a.chk != nil {
		e.lease = entryFreed
		return
	}
	a.pool.Put(e)
}

// AttachCheck installs a runtime invariant checker: every allocation
// pass is verified against Algorithm 1's feasibility conditions
// (top-queue rates sum to at most the link capacity, no negative
// reference rate, queue indices in range). Nil detaches (the default).
func (a *Arbitrator) AttachCheck(c *check.Checker) {
	a.chk = c
	if c.Enabled() {
		a.chkLabel = fmt.Sprintf("arb/link%d", a.LinkID)
	}
}

// Instrument counts the entries every allocation pass sorts
// (arb/entries_sorted). A nil registry detaches (the default).
func (a *Arbitrator) Instrument(reg *obs.Registry) {
	a.obsSorted = reg.Counter("arb/entries_sorted")
}

// SetCapacity updates the link capacity (delegation resizes virtual
// links at runtime).
func (a *Arbitrator) SetCapacity(c netem.BitRate) {
	if c < a.baseRate {
		c = a.baseRate
	}
	if c != a.capacity {
		a.capacity = c
		a.epoch = -1 // force recompute on next access
	}
}

// Capacity returns the current (virtual) link capacity.
func (a *Arbitrator) Capacity() netem.BitRate { return a.capacity }

// Flows returns the number of live registered flows.
func (a *Arbitrator) Flows() int { return len(a.entries) }

// Crash wipes the arbitrator's soft state — the flow table and every
// cached allocation — and marks it unreachable. PASE keeps no durable
// state: after Restore everything rebuilds from the next round of
// refreshes (§3.3 of the paper).
func (a *Arbitrator) Crash() {
	a.down = true
	for id, e := range a.entries {
		delete(a.entries, id)
		a.release(e)
	}
	a.epoch = -1
}

// Restore brings a crashed arbitrator back, empty; state rebuilds as
// refreshes arrive.
func (a *Arbitrator) Restore() {
	a.down = false
	a.epoch = -1
}

// Down reports whether the arbitrator is crashed.
func (a *Arbitrator) Down() bool { return a.down }

// Update registers or refreshes a flow and returns its decision
// (Algorithm 1). key is the scheduling criterion (remaining size or
// deadline); demand is the rate the sender could use.
func (a *Arbitrator) Update(flow pkt.FlowID, key int64, demand netem.BitRate) Decision {
	return a.update(flow, key, 0, demand)
}

// Grant is Update for a PDQ link, returning the rate: key2 (remaining
// bytes) breaks key ties, and past capacity a flow gets its demand
// while the flows granted ahead of it drain within horizon, else 0.
func (a *Arbitrator) Grant(flow pkt.FlowID, key, key2 int64, demand netem.BitRate, horizon sim.Duration) netem.BitRate {
	a.horizon = horizon
	return a.update(flow, key, key2, demand).Rref
}

func (a *Arbitrator) update(flow pkt.FlowID, key, key2 int64, demand netem.BitRate) Decision {
	now := a.clock()
	e, ok := a.entries[flow]
	if !ok {
		e = a.pool.Take()
		*e = entry{flow: flow, lease: math.MaxInt64}
		if a.entries == nil {
			a.entries = make(map[pkt.FlowID]*entry)
		}
		a.entries[flow] = e
		a.epoch = -1 // a newcomer never waits for an epoch edge
	}
	e.key = key
	e.key2 = key2
	e.demand = demand
	if a.period > 0 {
		e.lease = now.Add(leaseEpochs * a.period)
	}
	a.maybeRecompute(now)
	return e.decision
}

// Remove deregisters a finished flow.
func (a *Arbitrator) Remove(flow pkt.FlowID) {
	e, ok := a.entries[flow]
	if !ok {
		return
	}
	delete(a.entries, flow)
	a.release(e)
	a.epoch = -1 // re-allocate promptly so successors move up
}

// AggregateTopDemand sums the demands of flows currently mapped to
// queues 0..maxQueue; delegation uses it to size virtual links.
func (a *Arbitrator) AggregateTopDemand(maxQueue int8) netem.BitRate {
	a.maybeRecompute(a.clock())
	var sum netem.BitRate
	for _, e := range a.entries {
		if e.decision.Queue <= maxQueue {
			sum += e.demand
		}
	}
	return sum
}

// entryOrder is the allocation order, most urgent first. flow is
// unique per arbitrator, so the order is total and any correct sort
// produces the same sequence.
func entryOrder(x, y *entry) int {
	if c := cmp.Compare(x.key, y.key); c != 0 {
		return c
	}
	if c := cmp.Compare(x.key2, y.key2); c != 0 {
		return c
	}
	return cmp.Compare(x.flow, y.flow)
}

// maybeRecompute refreshes every cached decision once per epoch.
func (a *Arbitrator) maybeRecompute(now sim.Time) {
	if a.epoch >= 0 && now < a.epoch.Add(a.period) {
		return
	}
	a.epoch = now
	if a.sorted == nil {
		a.sorted = new([]*entry)
	}

	// Drop expired entries (flows that died without releasing).
	sorted := (*a.sorted)[:0]
	for id, e := range a.entries {
		if e.lease < now {
			delete(a.entries, id)
			a.release(e)
			continue
		}
		sorted = append(sorted, e)
	}
	*a.sorted = sorted
	slices.SortFunc(sorted, entryOrder)
	a.obsSorted.Add(int64(len(sorted)))

	// Algorithm 1, one pass: ADH accumulates the demand ahead of each
	// flow, drain the time the flows granted so far take to finish.
	var adh netem.BitRate
	var drain sim.Duration
	for _, e := range sorted {
		e.decision = a.decide(adh, e.demand)
		adh += e.demand
		if a.horizon > 0 {
			if e.decision.Queue > 0 && drain < a.horizon {
				e.decision.Rref = e.demand // Early Start
			}
			if e.decision.Rref > 0 {
				drain += sim.Duration(float64(e.key2*8) / float64(e.decision.Rref) * float64(sim.Second))
			}
		}
	}
	if a.chk != nil {
		a.checkAllocation()
	}
}

// checkAllocation verifies the freshly computed pass against the
// feasibility conditions: top-queue reference rates sum to at most the
// link capacity, every rate is non-negative, every queue index is
// within [0, numQueues), and a rate other than the base rate outside
// the top queue is an Early Start grant, in queue 1.
func (a *Arbitrator) checkAllocation() {
	var topSum netem.BitRate
	for _, e := range *a.sorted {
		d := e.decision
		if e.lease == entryFreed {
			a.chk.Reportf(check.InvArbCapacity, a.chkLabel, uint64(e.flow), "allocation pass read a released entry")
		}
		a.chk.RefRate(a.chkLabel, uint64(e.flow), int64(d.Rref))
		if d.Queue == 0 {
			topSum += d.Rref
		}
		if d.Queue < 0 || int32(d.Queue) >= a.numQueues {
			a.chk.Reportf(check.InvArbCapacity, a.chkLabel, uint64(e.flow),
				"queue index %d outside [0,%d)", d.Queue, a.numQueues)
		}
		if d.Queue > 0 && d.Rref != a.baseRate && (a.horizon == 0 || d.Queue != 1) {
			a.chk.Reportf(check.InvArbCapacity, a.chkLabel, uint64(e.flow),
				"rate %d in queue %d is neither the base rate nor an Early Start grant", d.Rref, d.Queue)
		}
	}
	a.chk.ArbAllocation(a.chkLabel, int64(topSum), int64(a.capacity))
}

// decide evaluates Algorithm 1 for a flow with the given aggregate
// higher-priority demand.
func (a *Arbitrator) decide(adh, demand netem.BitRate) Decision {
	var d Decision
	if adh < a.capacity {
		spare := a.capacity - adh
		if demand < spare {
			d.Rref = demand
		} else {
			d.Rref = spare
		}
		d.Queue = 0
		return d
	}
	d.Rref = a.baseRate
	// Each intermediate queue accommodates one link-capacity worth of
	// aggregate demand (ADH in [qC, (q+1)C) maps to 0-based queue q),
	// and the bottom queue absorbs all remaining flows — the 0-based
	// reading of the paper's PrioQue = ceil(ADH/C) clamp.
	q := int(adh / a.capacity)
	if q > int(a.numQueues)-1 {
		q = int(a.numQueues) - 1
	}
	d.Queue = int8(q)
	return d
}
