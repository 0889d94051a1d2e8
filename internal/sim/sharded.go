package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"pase/internal/obs"
)

// ShardedEngine runs one simulation across N Engine instances in
// parallel under classic conservative lookahead. The fabric is
// partitioned so shards interact only through links whose one-way
// propagation delay is at least the lookahead; that delay is then a
// hard causality bound — an event executed in the window [T, T+L) can
// affect another shard no earlier than T+L. The coordinator therefore
// advances every shard through synchronized windows of width L
// (a barrier-epoch protocol): the coordinator drains shard 0's calendar
// up to the window end itself while one worker goroutine per further
// shard drains its own — N shards, N goroutines — then stamps the
// window's rank nodes, releases buffered cross-shard handoffs, and
// opens the next window.
//
// Determinism: every event carries a schedule-lineage rank (rank.go)
// that totally orders timestamp ties exactly as the serial engine's
// seq counter would have, so a sharded run is byte-identical to the
// serial run at any shard count and any GOMAXPROCS.
//
// The tail of a run — where a Stop request can cut the calendar
// mid-window — executes serially: RunTail steps the globally least
// event one at a time, so the run halts at exactly the event the
// serial engine would have halted at.
type ShardedEngine struct {
	engs      []*Engine
	lookahead Duration
	setupCtr  uint64
	gidx      uint64
	now       Time // the last barrier; every shard clock is ≥ now

	// outbox[src] buffers the handoffs shard src captured during the
	// current window; only the src worker appends, so no locking.
	outbox [][]handoff
	// coordRanks are coordinator-built rank nodes (streamed arrival
	// chains) awaiting barrier stamping, in creation order.
	coordRanks []*Rank
	mergeBuf   []*Rank
	runsBuf    [][]*Rank

	tail    bool
	stopReq atomic.Bool

	// Worker synchronization: a spin barrier. The coordinator publishes
	// the window end, bumps epoch, runs the shards that have no worker,
	// and waits for every worker's done counter to catch up; workers
	// spin (with Gosched back-off, which is what lets more shards than
	// processors make progress) between windows. Spinning keeps the
	// per-window cost in the hundreds of nanoseconds — windows are one
	// link delay of simulated time, so there are many. Parking the
	// waiters instead was measured and lost (PERF_HISTORY.md, rank mode).
	//
	// workerDone[w] belongs to the worker of shard w+1. When only one
	// OS thread can run (GOMAXPROCS=1) there are no workers and the
	// coordinator drains every shard, saving a context-switch round
	// trip per window. Execution within a window is shard-independent,
	// so the results are identical either way.
	started    bool
	quitting   atomic.Bool
	epoch      atomic.Uint64
	windowEnd  atomic.Int64
	workerDone []paddedU64
	shardState []shardState

	o struct {
		windows   *obs.Counter
		handoffs  *obs.Counter
		batch     *obs.Histogram
		nullWins  *obs.Counter
		stall     *obs.Counter
		barrier   *obs.Counter
		tailEvs   *obs.Counter
		stallEach []*obs.Counter
	}
}

// handoff is one buffered cross-shard event: delivery time, the rank
// captured on the source shard, and the action (with its argument)
// that performs the delivery on the destination shard.
type handoff struct {
	dst int
	at  Time
	ctx *Rank
	k   uint64
	act Action
	arg any
}

// paddedU64 keeps per-worker done counters on distinct cache lines.
type paddedU64 struct {
	v atomic.Uint64
	_ [56]byte
}

// shardState is one shard's outcome of the current window, written by
// whichever goroutine ran the shard before it publishes done and read
// by the coordinator after observing done (the atomic pair orders the
// accesses).
type shardState struct {
	elapsed  time.Duration
	stopped  bool
	panicked error
	_        [32]byte
}

// NewShardedEngine builds n ranked engines under a shared setup
// counter. lookahead must be positive: it is the conservative
// synchronization window, normally the minimum one-way propagation
// delay over the partition's cut links. A zero-delay cut edge would
// force lockstep execution (every window empty), so construction fails
// fast instead of deadlocking — repartition so that no zero-delay link
// crosses shards.
func NewShardedEngine(n int, lookahead Duration) (*ShardedEngine, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: sharded engine needs at least 1 shard, got %d", n)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: sharded engine needs positive lookahead, got %v: "+
			"a zero-propagation-delay cut edge gives zero lookahead and would force lockstep execution; "+
			"repartition so every cross-shard link has nonzero propagation delay", lookahead)
	}
	se := &ShardedEngine{
		lookahead:  lookahead,
		outbox:     make([][]handoff, n),
		shardState: make([]shardState, n),
	}
	if runtime.GOMAXPROCS(0) > 1 {
		se.workerDone = make([]paddedU64, n-1)
	}
	for i := 0; i < n; i++ {
		e := NewEngine()
		e.EnableRank(&se.setupCtr)
		se.engs = append(se.engs, e)
	}
	return se, nil
}

// Shards returns the number of shards.
func (se *ShardedEngine) Shards() int { return len(se.engs) }

// Shard returns shard i's engine. Model components (ports, stacks)
// are bound to exactly one shard's engine at construction time.
func (se *ShardedEngine) Shard(i int) *Engine { return se.engs[i] }

// Lookahead returns the conservative window width.
func (se *ShardedEngine) Lookahead() Duration { return se.lookahead }

// Now returns the last barrier time: every shard clock is at or past
// it.
func (se *ShardedEngine) Now() Time { return se.now }

// Instrument registers the shard/* observability streams:
//
//	shard/windows        barrier windows executed
//	shard/handoffs       cross-shard events delivered
//	shard/handoff_batch  per-(window, destination) handoff batch sizes
//	shard/null_windows   (window, source) pairs with no handoffs — the
//	                     barrier-epoch analogue of a null message
//	shard/stall_ns       wall time shards spent waiting at barriers:
//	                     per window, the longest shard's run time minus
//	                     the shard's own (shard 0, which the coordinator
//	                     runs, included)
//	shard/stall_ns/<i>   the same, split per shard
//	shard/barrier_ns     coordinator wall time stamping ranks and
//	                     releasing handoffs — the serial section every
//	                     shard waits out
//	shard/tail_events    events executed by the serial tail
func (se *ShardedEngine) Instrument(reg *obs.Registry) {
	se.o.windows = reg.Counter("shard/windows")
	se.o.handoffs = reg.Counter("shard/handoffs")
	se.o.batch = reg.Histogram("shard/handoff_batch")
	se.o.nullWins = reg.Counter("shard/null_windows")
	se.o.stall = reg.Counter("shard/stall_ns")
	se.o.barrier = reg.Counter("shard/barrier_ns")
	se.o.tailEvs = reg.Counter("shard/tail_events")
	se.o.stallEach = se.o.stallEach[:0]
	for i := range se.engs {
		se.o.stallEach = append(se.o.stallEach, reg.Counter(fmt.Sprintf("shard/stall_ns/%d", i)))
	}
}

// SetupSlot allocates one shared setup slot for a coordinator-built
// event chain (streamed arrivals), mirroring the seq a serial setup
// Schedule call would have drawn.
func (se *ShardedEngine) SetupSlot() uint64 {
	k := se.setupCtr
	se.setupCtr++
	return k
}

// NewCoordRank builds a rank node for an event the coordinator models
// itself (a streamed arrival batch) and registers it for barrier
// stamping. at must fall inside the next window, and calls must come
// in event order.
func (se *ShardedEngine) NewCoordRank(at Time, head bool, ctx *Rank, k uint64) *Rank {
	n := &Rank{at: at, head: head, ctx: ctx, k: k}
	se.coordRanks = append(se.coordRanks, n)
	return n
}

// Handoff buffers one cross-shard event captured by shard src during
// the current window (or tail step). The (ctx, k) pair must come from
// the source engine's ChildSlot so the delivered event keeps its
// serial position; at must be at least one lookahead past the window
// start, which the propagation-delay bound guarantees.
func (se *ShardedEngine) Handoff(src, dst int, at Time, ctx *Rank, k uint64, fn func()) {
	se.HandoffAction(src, dst, at, ctx, k, funcAction(fn), nil)
}

// HandoffAction is Handoff for a pre-bound action: the delivered event
// fires a.Fire(arg) on the destination shard. Whatever arg points to
// changes owner with the event — the source shard must not touch it
// after the call.
func (se *ShardedEngine) HandoffAction(src, dst int, at Time, ctx *Rank, k uint64, a Action, arg any) {
	se.outbox[src] = append(se.outbox[src], handoff{dst: dst, at: at, ctx: ctx, k: k, act: a, arg: arg})
}

// RequestStop asks the run to halt. During the serial tail this cuts
// the run immediately after the current event, exactly like a serial
// Engine.Stop; a request during the parallel phase is a protocol
// violation (the runner must switch to the tail before any stop
// condition can fire) and panics at the next barrier.
func (se *ShardedEngine) RequestStop() { se.stopReq.Store(true) }

// MinPendingTime returns the earliest pending event time across all
// shards. Valid only between windows (workers quiescent).
func (se *ShardedEngine) MinPendingTime() (Time, bool) {
	var best Time
	ok := false
	for _, e := range se.engs {
		if at, _, _, _, live := e.NextEventKey(); live {
			if !ok || at < best {
				best, ok = at, true
			}
		}
	}
	return best, ok
}

// StepWindow runs every shard concurrently up to (excluding) end, then
// performs the barrier: stamp the window's rank nodes in global serial
// order and release the buffered cross-shard handoffs. end must be at
// most one lookahead past the earliest event that was pending when the
// window opened.
func (se *ShardedEngine) StepWindow(end Time) {
	if se.tail {
		panic("sim: StepWindow after RunTail")
	}
	workers := len(se.workerDone)
	if !se.started {
		se.started = true
		for w := 0; w < workers; w++ {
			go se.worker(w, se.epoch.Load()+1)
		}
	}
	se.windowEnd.Store(int64(end))
	e := se.epoch.Add(1)
	for i := range se.engs {
		if i == 0 || workers == 0 {
			se.runShard(i, end)
		}
	}
	for w := range se.workerDone {
		await(&se.workerDone[w].v, e)
	}
	var longest time.Duration
	for i := range se.shardState {
		st := &se.shardState[i]
		if st.panicked != nil {
			panic(st.panicked)
		}
		if st.stopped {
			panic("sim: Stop during a parallel window — the runner must enter the serial tail before any stop condition can fire")
		}
		if st.elapsed > longest {
			longest = st.elapsed
		}
	}
	if workers > 0 { // no workers, no waiting
		for i := range se.shardState {
			stall := int64(longest - se.shardState[i].elapsed)
			se.o.stall.Add(stall)
			if se.o.stallEach != nil {
				se.o.stallEach[i].Add(stall)
			}
		}
	}
	if se.stopReq.Load() {
		panic("sim: stop requested during a parallel window — the runner must enter the serial tail before any stop condition can fire")
	}
	se.o.windows.Inc()
	t0 := time.Now()
	se.stampBarrier()
	se.flushHandoffs()
	se.o.barrier.Add(int64(time.Since(t0)))
	se.now = end
}

// runShard drains shard i's window on the calling goroutine. A panic
// in a model component is kept with the stack of the goroutine it
// happened on: StepWindow re-raises it from the coordinator, whose own
// stack has no faulting frame.
func (se *ShardedEngine) runShard(i int, bound Time) {
	st := &se.shardState[i]
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			st.panicked = fmt.Errorf("sim: shard %d panicked: %v\n%s", i, r, debug.Stack())
		}
		st.elapsed = time.Since(t0)
	}()
	st.stopped = se.engs[i].RunBefore(bound)
}

// worker w runs shard w+1's window in every epoch from first on, until
// shutdown.
func (se *ShardedEngine) worker(w int, first uint64) {
	for e := first; ; e++ {
		await(&se.epoch, e)
		if se.quitting.Load() {
			se.workerDone[w].v.Store(e)
			return
		}
		se.runShard(w+1, Time(se.windowEnd.Load()))
		se.workerDone[w].v.Store(e)
	}
}

// await spins until v has reached want.
func await(v *atomic.Uint64, want uint64) {
	for spins := 0; v.Load() < want; spins++ {
		if spins > 256 {
			runtime.Gosched()
		}
	}
}

// shutdownWorkers quiesces and terminates the worker goroutines; the
// coordinator owns every engine afterwards.
func (se *ShardedEngine) shutdownWorkers() {
	if !se.started {
		return
	}
	se.quitting.Store(true)
	e := se.epoch.Add(1)
	for w := range se.workerDone {
		await(&se.workerDone[w].v, e)
	}
	se.started = false
}

// stampBarrier assigns global serial indices to every rank node
// created during the window. Each shard's nodes arrive in local
// execution order — already sorted — so a k-way merge by event order
// yields the global order. Indices and the parent-pointer drop are
// applied only after the full order is known: stamping a node
// mid-merge would cut a lineage other comparisons still walk.
func (se *ShardedEngine) stampBarrier() {
	runs := se.runsBuf[:0]
	for _, e := range se.engs {
		if len(e.newRanks) > 0 {
			runs = append(runs, e.newRanks)
		}
	}
	if len(se.coordRanks) > 0 {
		runs = append(runs, se.coordRanks)
	}
	merged := se.mergeBuf[:0]
	for len(runs) > 0 {
		best := 0
		for r := 1; r < len(runs); r++ {
			if rankNodeLess(runs[r][0], runs[best][0]) {
				best = r
			}
		}
		merged = append(merged, runs[best][0])
		if runs[best] = runs[best][1:]; len(runs[best]) == 0 {
			runs[best] = runs[len(runs)-1]
			runs[len(runs)-1] = nil
			runs = runs[:len(runs)-1]
		}
	}
	for _, n := range merged {
		se.gidx++
		n.gidx = se.gidx
		n.ctx.release() // the lineage hold; the parent is stamped already
		n.ctx = nil
		n.release() // the newRanks hold
	}
	clear(merged)
	se.mergeBuf = merged[:0]
	se.runsBuf = runs[:0]
	for _, e := range se.engs {
		clear(e.newRanks)
		e.newRanks = e.newRanks[:0]
	}
	clear(se.coordRanks)
	se.coordRanks = se.coordRanks[:0]
}

// flushHandoffs injects every buffered cross-shard event into its
// destination shard. Injection order is irrelevant to execution order
// (the calendar is a total order over ranks); the batching is recorded
// per destination for observability.
func (se *ShardedEngine) flushHandoffs() {
	for src := range se.outbox {
		if len(se.outbox[src]) == 0 {
			se.o.nullWins.Inc()
			continue
		}
		se.o.batch.Observe(int64(len(se.outbox[src])))
		se.deliver(src)
	}
}

// deliver injects outbox[src] and empties it, dropping what the backing
// array still references. No pointer crosses shards: the rank a handoff
// captured on the source shard is stamped by now (stampBarrier runs
// first; the tail stamps at creation), so the event gets a stand-in
// from the destination's own free list carrying (at, head, gidx) — all
// a comparison reads of a stamped node — and the source node loses its
// handoff hold. Consecutive handoffs of one event to one shard share a
// stand-in, as they shared the node.
func (se *ShardedEngine) deliver(src int) {
	var from, to *Rank // the last source node and its stand-in
	for _, h := range se.outbox[src] {
		dst, ctx := se.engs[h.dst], h.ctx
		if ctx != nil && ctx.owner != nil {
			if ctx != from || to.owner != dst {
				to.release()
				from, to = ctx, dst.newRank()
				to.at, to.head, to.gidx = ctx.at, ctx.head, ctx.gidx
			}
			ctx.release()
			ctx = to
		}
		dst.inject(h.at, false, ctx, h.k, h.act, h.arg)
		se.o.handoffs.Inc()
	}
	to.release() // newRank's hold: the calendar records have their own
	clear(se.outbox[src])
	se.outbox[src] = se.outbox[src][:0]
}

// EnterTail switches the run into exact serial execution: workers are
// terminated, outstanding rank nodes stamped, and from here on
// RunTail steps the globally least event one at a time on the
// coordinator goroutine.
func (se *ShardedEngine) EnterTail() {
	if se.tail {
		return
	}
	se.shutdownWorkers()
	se.stampBarrier()
	se.flushHandoffs()
	for _, e := range se.engs {
		e.SetTailStamp(&se.gidx)
	}
	se.tail = true
}

// RunTail drains the calendars serially: repeatedly execute the
// globally least event (by time, head flag, rank) until a stop is
// requested or the calendars empty. Cross-shard handoffs are released
// after every step, which is trivially safe: the coordinator is the
// only runner. Afterwards every shard clock is aligned on the latest
// shard.
func (se *ShardedEngine) RunTail() {
	se.EnterTail()
	for !se.stopReq.Load() {
		best := -1
		var bAt Time
		var bHead bool
		var bCtx *Rank
		var bK uint64
		for i, e := range se.engs {
			at, head, ctx, k, ok := e.NextEventKey()
			if !ok {
				continue
			}
			if best == -1 || eventKeyLess(at, head, ctx, k, bAt, bHead, bCtx, bK) {
				best, bAt, bHead, bCtx, bK = i, at, head, ctx, k
			}
		}
		if best == -1 {
			break
		}
		eng := se.engs[best]
		eng.Step()
		se.o.tailEvs.Inc()
		if eng.Stopped() {
			se.stopReq.Store(true)
		}
		se.deliver(best)
	}
	var latest Time
	for _, e := range se.engs {
		if e.Now() > latest {
			latest = e.Now()
		}
	}
	for _, e := range se.engs {
		e.AdvanceTo(latest)
	}
}

// eventKeyLess is the calendar order over (time, head, rank) keys.
func eventKeyLess(a1 Time, h1 bool, c1 *Rank, k1 uint64, a2 Time, h2 bool, c2 *Rank, k2 uint64) bool {
	if a1 != a2 {
		return a1 < a2
	}
	if h1 != h2 {
		return h1
	}
	return rankLess(c1, k1, c2, k2)
}

// Close terminates the worker goroutines without entering the tail
// (for aborted runs and tests).
func (se *ShardedEngine) Close() { se.shutdownWorkers() }

// Executed sums the events dispatched across every shard.
func (se *ShardedEngine) Executed() uint64 {
	var n uint64
	for _, e := range se.engs {
		n += e.Executed
	}
	return n
}
