package sim

import (
	"fmt"
	"runtime"
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
// (a barrier-epoch protocol): workers drain their calendars up to the
// window end concurrently, then the coordinator stamps the window's
// rank nodes, releases buffered cross-shard handoffs, and opens the
// next window.
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

	// Worker synchronization: a spin barrier. The coordinator
	// publishes the window end, bumps epoch, and waits for every
	// worker's done counter to catch up; workers spin (with Gosched
	// back-off) between windows. Spinning keeps the per-window cost in
	// the hundreds of nanoseconds — windows are one link delay of
	// simulated time, so there are many.
	//
	// inline bypasses the workers entirely when only one OS thread can
	// run (GOMAXPROCS=1): the coordinator drains each shard's window on
	// its own goroutine, saving a context-switch round trip per window.
	// Execution within a window is shard-independent, so the results
	// are identical either way.
	inline      bool
	started     bool
	quitting    atomic.Bool
	epoch       atomic.Uint64
	windowEnd   atomic.Int64
	workerDone  []paddedU64
	workerState []workerState

	o struct {
		windows   *obs.Counter
		handoffs  *obs.Counter
		batch     *obs.Histogram
		nullWins  *obs.Counter
		stall     *obs.Counter
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

// workerState is written by its worker before publishing done and read
// by the coordinator after observing done (the atomic pair orders the
// accesses).
type workerState struct {
	elapsed  time.Duration
	stopped  bool
	panicked any
	_        [24]byte
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
		lookahead:   lookahead,
		inline:      runtime.GOMAXPROCS(0) < 2,
		outbox:      make([][]handoff, n),
		workerDone:  make([]paddedU64, n),
		workerState: make([]workerState, n),
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
//	shard/stall_ns       wall time shards spent waiting at barriers
//	shard/stall_ns/<i>   the same, split per shard
//	shard/tail_events    events executed by the serial tail
func (se *ShardedEngine) Instrument(reg *obs.Registry) {
	se.o.windows = reg.Counter("shard/windows")
	se.o.handoffs = reg.Counter("shard/handoffs")
	se.o.batch = reg.Histogram("shard/handoff_batch")
	se.o.nullWins = reg.Counter("shard/null_windows")
	se.o.stall = reg.Counter("shard/stall_ns")
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

// StopRequested reports whether RequestStop was called.
func (se *ShardedEngine) StopRequested() bool { return se.stopReq.Load() }

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
	if se.inline {
		for _, eng := range se.engs {
			if eng.RunBefore(end) {
				panic("sim: Stop during a parallel window — the runner must enter the serial tail before any stop condition can fire")
			}
		}
	} else {
		se.startWorkers()
		se.windowEnd.Store(int64(end))
		e := se.epoch.Add(1)
		var maxElapsed time.Duration
		for i := range se.workerDone {
			spins := 0
			for se.workerDone[i].v.Load() < e {
				spins++
				if spins > 256 {
					runtime.Gosched()
				}
			}
			st := &se.workerState[i]
			if st.panicked != nil {
				panic(st.panicked)
			}
			if st.stopped {
				panic("sim: Stop during a parallel window — the runner must enter the serial tail before any stop condition can fire")
			}
			if st.elapsed > maxElapsed {
				maxElapsed = st.elapsed
			}
		}
		for i := range se.workerState {
			stall := int64(maxElapsed - se.workerState[i].elapsed)
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
	se.stampBarrier()
	se.flushHandoffs()
	se.now = end
}

func (se *ShardedEngine) startWorkers() {
	if se.started {
		return
	}
	se.started = true
	for i := range se.engs {
		go se.worker(i)
	}
}

func (se *ShardedEngine) worker(i int) {
	eng := se.engs[i]
	var last uint64
	for {
		spins := 0
		for {
			e := se.epoch.Load()
			if e != last {
				last = e
				break
			}
			spins++
			if spins > 256 {
				runtime.Gosched()
			}
		}
		if se.quitting.Load() {
			se.workerDone[i].v.Store(last)
			return
		}
		bound := Time(se.windowEnd.Load())
		st := &se.workerState[i]
		t0 := time.Now()
		func() {
			defer func() {
				if r := recover(); r != nil {
					st.panicked = r
				}
			}()
			st.stopped = eng.RunBefore(bound)
		}()
		st.elapsed = time.Since(t0)
		se.workerDone[i].v.Store(last)
		if st.panicked != nil {
			return
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
	for i := range se.workerDone {
		spins := 0
		for se.workerDone[i].v.Load() < e {
			spins++
			if spins > 256 {
				runtime.Gosched()
			}
		}
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
		if ns := e.TakeNewRanks(); len(ns) > 0 {
			runs = append(runs, ns)
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
		n.ctx = nil
	}
	for i := range merged {
		merged[i] = nil
	}
	se.mergeBuf = merged[:0]
	se.runsBuf = runs[:0]
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
		for _, h := range se.outbox[src] {
			se.engs[h.dst].inject(h.at, false, h.ctx, h.k, h.act, h.arg)
			se.o.handoffs.Inc()
		}
		se.o.batch.Observe(int64(len(se.outbox[src])))
		se.outbox[src] = se.outbox[src][:0]
	}
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
// requested, the calendars empty, or — when hasDeadline — the next
// event lies beyond deadline. Cross-shard handoffs are released after
// every step, which is trivially safe: the coordinator is the only
// runner. Afterwards every shard clock is advanced to the deadline
// (mirroring RunUntil) or aligned on the latest shard.
func (se *ShardedEngine) RunTail(deadline Time, hasDeadline bool) {
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
		if hasDeadline && bAt > deadline {
			break
		}
		eng := se.engs[best]
		eng.Step()
		se.o.tailEvs.Inc()
		if eng.Stopped() {
			se.stopReq.Store(true)
		}
		if len(se.outbox[best]) > 0 {
			for _, h := range se.outbox[best] {
				se.engs[h.dst].inject(h.at, false, h.ctx, h.k, h.act, h.arg)
				se.o.handoffs.Inc()
			}
			se.outbox[best] = se.outbox[best][:0]
		}
	}
	if hasDeadline {
		for _, e := range se.engs {
			e.AdvanceTo(deadline)
		}
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
