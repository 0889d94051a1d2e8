package sim

import (
	"fmt"

	"pase/internal/check"
	"pase/internal/obs"
	"pase/internal/pool"
)

// Engine is the discrete-event simulation core. It owns the virtual
// clock and the pending-event calendar. All model components schedule
// callbacks on the engine; Run drains the calendar in time order.
//
// Engine is not safe for concurrent use: the whole simulation runs on
// one goroutine, which keeps event execution deterministic. Distinct
// engines share nothing and may run on distinct goroutines.
//
// Internally the calendar is a window of time buckets with a 4-ary
// min-heap behind it (calendar.go), holding recycled event records:
// cancellation is O(1) lazy deletion (the record is marked dead and
// discarded when it surfaces), and fired or dead records return to a
// bounded free list instead of the garbage collector.
type Engine struct {
	now     Time
	cal     calendar
	free    pool.List[event] // recycled records, capped at maxFree
	dead    int              // stopped events still in the calendar
	seq     uint64           // monotonically increasing tie-breaker
	stopped bool
	// pastAt/pastSeq locate the engine for Passed: every At event of
	// instant pastAt with a seq below pastSeq has gone by. Step sets
	// them to the latest At event it dispatched — At events of one
	// instant fire in seq order, since a later one draws a larger seq
	// — and a drained run to everything scheduled so far.
	pastAt  Time
	pastSeq uint64
	// Executed counts the number of events dispatched so far; it is
	// exposed for tests and for runaway-simulation guards. It counts
	// filed events only, so a reserved slot that was never filed
	// (Reserve) adds nothing.
	Executed uint64
	// Limit, when non-zero, aborts Run with an error after that many
	// events. It protects against accidental infinite event loops; no
	// model component sets it, only tests.
	Limit uint64

	// Local is per-engine state owned by a layer above sim, which sim
	// cannot import: package pkt keeps the engine's packet pool here
	// (pkt.PoolOf), so every port and stack clocked by one engine
	// shares one single-goroutine pool.
	Local any

	// Observability instruments, nil until Instrument is called. All
	// are nil-safe no-ops, so the hot path carries them unconditionally.
	obsFired   *obs.Counter
	obsSched   *obs.Counter
	obsStopped *obs.Counter
	obsHeap    *obs.Gauge

	// chk, when non-nil, verifies dispatch-order invariants (clock
	// monotonicity). Nil (the default) costs one pointer test per event.
	chk *check.Checker

	// Ranked-mode state (sharded runs only; see rank.go). When ranked
	// is false — every serial run — none of these fields are touched
	// and the calendar breaks ties with seq exactly as before.
	ranked   bool
	setupCtr *uint64  // shared across shards: global setup-slot order
	cur      rankMeta // coordinates of the currently executing event
	curNode  *Rank    // lazily created rank node for that event
	curK     uint64   // child slots handed out by that event so far
	inEvent  bool
	newRanks []*Rank // nodes created since the last barrier stamping
	tailGidx *uint64 // non-nil in serial-tail mode: stamp at creation
	rankFree *Rank   // recycled rank nodes, linked through ctx
	rankLive int     // nodes taken and not yet released
}

// Instrument attaches run-wide observability to the engine. Passing a
// nil registry detaches it (the default state). The recorded streams:
//
//	sim/events_fired      events dispatched by Step
//	sim/events_scheduled  events added by At/Schedule/File
//	sim/timers_stopped    successful Timer.Stop cancellations
//	sim/scheduled_overflow  events filed past the calendar window
//	sim/heap_depth        calendar depth high-watermark (incl. dead)
func (e *Engine) Instrument(reg *obs.Registry) {
	e.obsFired = reg.Counter("sim/events_fired")
	e.obsSched = reg.Counter("sim/events_scheduled")
	e.obsStopped = reg.Counter("sim/timers_stopped")
	e.cal.overflow = reg.Counter("sim/scheduled_overflow")
	e.obsHeap = reg.Gauge("sim/heap_depth")
}

// AttachCheck attaches a runtime invariant checker to the engine;
// passing nil detaches it (the default state). The engine verifies
// that dispatched event timestamps never run backwards. The packet
// pool reads Checked when it is made, so attaching a checker to an
// unchecked engine after a layer has made its Local state panics rather
// than leave that pool recycling.
func (e *Engine) AttachCheck(c *check.Checker) {
	if c != nil && e.chk == nil && e.Local != nil {
		panic("sim: AttachCheck after the engine's pools were made; attach the checker before building on the engine")
	}
	e.chk = c
}

// Checked reports whether a checker is attached. Records recycled on
// this engine are then retired instead, so a use after release is
// caught rather than absorbed by the next owner: rank nodes, packets
// (pkt.PoolOf) and flow records (package transport). Event records
// always recycle; a stale Timer is caught by its generation.
func (e *Engine) Checked() bool { return e.chk != nil }

// maxFree bounds the free list so a burst of scheduling does not pin
// memory for the rest of the run. Records beyond the cap are left to
// the garbage collector. A cap below a run's calendar depth would drop
// records each time the calendar drains and allocate them again as it
// refills; above it, the list only ever holds records the run once had
// pending, so the head room costs nothing. The reference runs peak at
// 713–3 027 entries (sim.heap_depth_max, 784–1 100 on the stored fig-9a
// and ctrlscale-512 runs); 16 384 leaves 5× for deeper scenarios.
const maxFree = 16384

// compactMinDead is the floor below which Stop never triggers
// compaction; above it, compaction runs once dead events outnumber
// live ones, keeping the calendar at most ~2× the live event count.
const compactMinDead = 64

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{free: pool.New[event](32, maxFree)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Action is a pre-bound event target: the allocation-free alternative
// to a closure for events a long-lived object schedules over and over
// (a port's link events, a sender's timers). The receiver is the
// target; arg is one pointer-shaped argument carried by the event
// record (a pointer stored in an interface does not allocate). An
// action event draws the same seq / rank child slot a closure event
// scheduled by the same call would, so the two forms are
// interchangeable without moving any tie-break.
type Action interface{ Fire(arg any) }

// funcAction runs a closure as an Action, so the calendar holds one
// kind of record. A func value is pointer-shaped: the conversion is
// free.
type funcAction func()

func (f funcAction) Fire(any) { f() }

// event is one calendar entry. Records are owned by the engine and
// recycled after they fire or are cancelled; outstanding Timer handles
// detect reuse through the generation counter.
type event struct {
	at      Time
	seq     uint64
	act     Action
	arg     any
	eng     *Engine
	gen     uint32
	head    bool // AtHead event: wins timestamp ties against At events
	stopped bool
	next    *event // the bucket list, while the record sits in one

	// Ranked-mode lineage: the node of the event whose execution
	// scheduled this one (nil = setup slot) and the call index within
	// that execution. Unused (zero) on unranked engines.
	ctx *Rank
	k   uint64
}

// Timer is a handle to a scheduled event, used for cancellation. The
// zero Timer is valid and inert: Stop and Pending on it report false.
// A Timer whose event already fired is equally inert — the generation
// check makes Stop on a stale handle a no-op even though the engine
// has recycled the underlying record for a different event.
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer. It reports whether the timer was still
// pending (false if it had already fired or been stopped). The event
// record stays in the calendar, marked dead, and is dropped when it
// reaches the top of the heap — cancellation never pays a sift.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.stopped {
		return false
	}
	ev.stopped = true
	ev.act, ev.arg = nil, nil // release the target immediately
	e := ev.eng
	e.obsStopped.Inc()
	e.dead++
	if e.dead > compactMinDead && e.dead > e.cal.n-e.dead {
		e.compact()
	}
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.stopped
}

// Schedule runs fn after delay d. A negative delay is treated as zero
// (fn runs at the current instant, after already-queued events for
// this instant that were scheduled earlier).
func (e *Engine) Schedule(d Duration, fn func()) Timer {
	return e.ScheduleAction(d, funcAction(fn), nil)
}

// At runs fn at absolute time t. Scheduling in the past panics: it is
// always a model bug.
func (e *Engine) At(t Time, fn func()) Timer {
	return e.schedule(t, funcAction(fn), nil, false)
}

// ScheduleAction runs a.Fire(arg) after delay d: Schedule without the
// closure. Negative delays are treated as zero.
func (e *Engine) ScheduleAction(d Duration, a Action, arg any) Timer {
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now.Add(d), a, arg, false)
}

// Slot is a reserved place in the event order: the key an event
// scheduled by ScheduleAction at the moment of the Reserve call would
// have had. Until File files it, nothing is in the calendar.
type Slot struct {
	at    Time
	seq   uint64
	filed bool
}

// Filed reports whether the slot's event is in the calendar (or has
// fired from it).
func (s Slot) Filed() bool { return s.filed }

// Reserve draws the key ScheduleAction(d, a, arg) would draw now —
// same time, same seq — without filing an event: a port's transmit
// completion, which has work to do only if a packet waits for the
// line by then. File files it later at exactly that key; Passed tells
// whether the engine has gone past it. A ranked engine cannot hand a
// rank child slot out later, so there Reserve files a.Fire(arg) at
// once.
func (e *Engine) Reserve(d Duration, a Action, arg any) Slot {
	if d < 0 {
		d = 0
	}
	at := e.now.Add(d)
	if e.ranked {
		tm := e.schedule(at, a, arg, false)
		return Slot{at: at, seq: tm.ev.seq, filed: true}
	}
	e.seq++
	return Slot{at: at, seq: e.seq}
}

// File schedules a.Fire(arg) at the slot's key, so it sorts where the
// event ScheduleAction would have filed at reservation time does. A
// filed slot stays filed: filing it again does nothing. Filing a slot
// the engine has passed panics, like scheduling in the past.
func (e *Engine) File(s *Slot, a Action, arg any) {
	if s.filed {
		return
	}
	if e.Passed(*s) {
		panic(fmt.Sprintf("sim: filing a slot at %v that the engine has passed (now %v)", s.at, e.now))
	}
	s.filed = true
	e.file(s.at, s.seq, a, arg, false, nil, 0)
}

// Passed reports whether the engine has gone past an unfiled slot's
// key: an event filed there would have fired already. Between events,
// the events of the current instant that the last Run, RunUntil or
// Step drained count as gone by. A filed slot's own event acts at the
// key; on a ranked engine every slot is filed.
func (e *Engine) Passed(s Slot) bool {
	return e.now > s.at || s.at == e.pastAt && s.seq < e.pastSeq
}

// drained records that every event scheduled so far for the current
// instant has gone by.
func (e *Engine) drained() { e.pastAt, e.pastSeq = e.now, e.seq+1 }

func (e *Engine) schedule(t Time, a Action, arg any, head bool) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ctx *Rank
	var k uint64
	if e.ranked {
		ctx, k = e.childSlot()
	}
	ev := e.enqueue(t, a, arg, head, ctx, k)
	return Timer{ev: ev, gen: ev.gen}
}

// enqueue draws the next seq and files an event with it.
func (e *Engine) enqueue(t Time, a Action, arg any, head bool, ctx *Rank, k uint64) *event {
	e.seq++
	return e.file(t, e.seq, a, arg, head, ctx, k)
}

// file fills a record and files it in the calendar.
func (e *Engine) file(t Time, seq uint64, a Action, arg any, head bool, ctx *Rank, k uint64) *event {
	ev := e.free.Take()
	if ev.eng == nil { // a record's first life; it never changes engine
		ev.eng = e
	}
	ev.at = t
	ev.seq = seq
	ev.act, ev.arg = a, arg
	ev.head = head
	ev.ctx, ev.k = ctx, k
	e.cal.push(ev)
	e.obsSched.Inc()
	e.obsHeap.Update(int64(e.cal.n))
	return ev
}

// AtHead runs fn at absolute time t, ahead of every At/Schedule event
// sharing that timestamp (AtHead events among themselves keep FIFO
// order). It exists for lazily scheduled flow arrivals: a schedule
// materialized before the run naturally holds lower sequence numbers
// than anything the run itself enqueues, so its arrivals win all
// timestamp ties — an arrival scheduled mid-run can only reproduce
// that order by jumping the tie-break. Like At, scheduling in the past
// panics.
func (e *Engine) AtHead(t Time, fn func()) Timer {
	return e.schedule(t, funcAction(fn), nil, true)
}

// recycle invalidates outstanding handles and returns the record to
// the free list (or the garbage collector once the list is full). The
// generation survives: it is what makes a stale Timer inert.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.act, ev.arg = nil, nil
	ev.head = false
	ev.stopped = false
	if ev.ctx != nil {
		ev.ctx.release()
		ev.ctx = nil
	}
	e.free.Put(ev)
}

// peek discards dead records until the earliest live event surfaces,
// returning nil when the calendar holds no live events.
func (e *Engine) peek() *event {
	for {
		ev := e.cal.min()
		if ev == nil || !ev.stopped {
			return ev
		}
		e.cal.pop()
		e.dead--
		e.recycle(ev)
	}
}

// Step executes the single earliest pending event. It reports false
// when the calendar holds no live events; everything scheduled for
// the current instant has then gone by (Passed).
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		e.drained()
		return false
	}
	e.cal.pop()
	if e.chk != nil {
		e.chk.Monotonic("sim/engine", int64(e.now), int64(ev.at))
	}
	e.now = ev.at
	if !ev.head {
		e.pastAt, e.pastSeq = ev.at, ev.seq
	}
	e.Executed++
	e.obsFired.Inc()
	act, arg := ev.act, ev.arg
	if e.ranked {
		// The record is recycled before dispatch, so hold the event's
		// own coordinates — and its hold on the parent node — for lazy
		// rank-node creation in childSlot.
		e.cur = rankMeta{at: ev.at, head: ev.head, ctx: ev.ctx, k: ev.k}
		ev.ctx = nil
		e.curK = 0
		e.inEvent = true
		e.recycle(ev)
		act.Fire(arg)
		e.inEvent = false
		e.curNode.release()
		e.cur.ctx.release()
		e.curNode, e.cur.ctx = nil, nil
		return true
	}
	e.recycle(ev)
	act.Fire(arg)
	return true
}

// Run drains the calendar until it is empty or Stop is called.
func (e *Engine) Run() error {
	e.stopped = false
	for !e.stopped {
		if e.Limit > 0 && e.Executed >= e.Limit {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", e.Limit, e.now)
		}
		if !e.Step() {
			return nil
		}
	}
	return nil
}

// RunUntil processes events with timestamps <= deadline, then advances
// the clock to the deadline. Events scheduled beyond it stay queued;
// unless Stop cut the run short, everything scheduled so far for the
// deadline has then gone by (Passed).
func (e *Engine) RunUntil(deadline Time) error {
	e.stopped = false
	for !e.stopped {
		if e.Limit > 0 && e.Executed >= e.Limit {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", e.Limit, e.now)
		}
		ev := e.peek()
		if ev == nil || ev.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	if !e.stopped {
		e.drained()
	}
	return nil
}

// Stop makes Run return after the event currently executing.
func (e *Engine) Stop() { e.stopped = true }

// compact filters dead records out of the calendar in one O(n) pass,
// bounding the memory cancelled events can hold.
func (e *Engine) compact() {
	e.cal.filter(func(ev *event) bool {
		if ev.stopped {
			e.recycle(ev) // clears stopped
			return false
		}
		return true
	})
	e.dead = 0
}

// heapLen reports the calendar size including dead records (test hook).
func (e *Engine) heapLen() int { return e.cal.n }

// less is the engine's one event order, (time, head, seq): AtHead
// events sort before At events at the same instant, and seq breaks the
// remaining ties in FIFO scheduling order. Since every (time, seq) key
// is unique the order is total — runs are deterministic regardless of
// calendar shape. It inlines into every sift and sort; only a
// timestamp tie pays a call.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return tieLess(a, b)
}

// tieLess orders two events of one instant: head first, then seq — or,
// on a ranked engine, the cross-shard schedule lineage instead of the
// shard-local seq (see rank.go). Kept out of line so less inlines.
//
//go:noinline
func tieLess(a, b *event) bool {
	if a.head != b.head {
		return a.head
	}
	if a.eng.ranked {
		return rankLess(a.ctx, a.k, b.ctx, b.k)
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap in less order: the calendar's overflow,
// past the bucket window. The wider node fans out fewer cache-missed
// levels per sift than a binary heap.
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.siftUp(len(*h) - 1)
}

// popTop removes the minimum element. Callers peek h[0] first.
func (h *eventHeap) popTop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	if n > 1 {
		h.siftDown(0)
	}
}

func (h eventHeap) siftUp(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !less(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	ev := h[i]
	for {
		min := -1
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		min = first
		for c := first + 1; c < last; c++ {
			if less(h[c], h[min]) {
				min = c
			}
		}
		if !less(h[min], ev) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ev
}

// heapify restores the heap property over the whole slice.
func (h eventHeap) heapify() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		h.siftDown(i)
	}
}
