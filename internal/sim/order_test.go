package sim

import (
	"slices"
	"sort"
	"testing"
)

// The order oracle: random programs of Schedule, At, AtHead and
// ScheduleAction run once on an Engine and once on refCal, a sorted
// slice that is the calendar's contract written down with no data
// structure at all. The two must fire the same events in the same
// order, and at every firing hold the same number of entries,
// cancelled ones included — lazy deletion and compaction are part of
// the contract, because the sim/heap_depth gauge reports that number.
//
// Programs also reserve slots (Reserve/File/Passed), the way a port
// reserves its transmit completion. The oracle files every reserved
// slot at reservation time as a marker that runs nothing and is not
// counted: Passed must report whether the oracle has fired the marker,
// and File turns the marker into the event at the same key.

// orderCal is what a program drives: the Engine or the oracle.
type orderCal interface {
	Now() Time
	sched(t Time, form int, fn func()) (stop func() bool)
	Step() bool
	RunUntil(deadline Time) error
	Pending() int
	size() int
	// reserve takes a slot at t and returns its handle; file files
	// fn at the slot's key; passed is Passed on an unfiled slot.
	reserve(t Time) int
	file(h int, fn func())
	passed(h int) bool
}

// engCal adapts an Engine. form picks the scheduling call.
type engCal struct {
	*Engine
	slots []Slot
}

// callArg is an Action whose argument is the closure to run, so the
// ScheduleAction form carries a real argument through the calendar.
type callArg struct{}

func (callArg) Fire(arg any) { arg.(func())() }

func (c engCal) sched(t Time, form int, fn func()) func() bool {
	var tm Timer
	switch form {
	case 0:
		tm = c.Schedule(t.Sub(c.Now()), fn)
	case 1:
		tm = c.At(t, fn)
	case 2:
		tm = c.AtHead(t, fn)
	default:
		tm = c.ScheduleAction(t.Sub(c.Now()), callArg{}, fn)
	}
	return tm.Stop
}

func (c engCal) size() int { return c.heapLen() }

func (c *engCal) reserve(t Time) int {
	c.slots = append(c.slots, c.Reserve(t.Sub(c.Now()), callArg{}, nil))
	return len(c.slots) - 1
}

func (c *engCal) Pending() int          { return livePending(c.Engine) }
func (c *engCal) file(h int, fn func()) { c.File(&c.slots[h], callArg{}, fn) }
func (c *engCal) passed(h int) bool     { return c.Passed(c.slots[h]) }

type refEvent struct {
	at          Time
	head        bool
	seq         uint64
	fn          func()
	dead, fired bool
}

// refCal keeps every entry, live or cancelled, in one slice sorted by
// (at, head first, seq). A cancelled entry leaves when it reaches the
// front or when dead entries pass compactMinDead and outnumber live ones.
//
// Reserved slots are markers beside the slice, at (at, seq) like an At
// event. A marker fires when an event that sorts after it fires, and
// when the calendar drains — Step finding nothing, or RunUntil
// reaching its deadline — if it lies at or before the clock.
type refCal struct {
	now   Time
	seq   uint64
	evs   []*refEvent
	dead  int
	marks []*refEvent // fired set once the marker fires; fn nil until filed
}

func refLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.head != b.head {
		return a.head
	}
	return a.seq < b.seq
}

func (r *refCal) Now() Time    { return r.now }
func (r *refCal) Pending() int { return len(r.evs) - r.dead }
func (r *refCal) size() int    { return len(r.evs) }

func (r *refCal) sched(t Time, form int, fn func()) func() bool {
	if t < r.now {
		panic("refCal: scheduling in the past")
	}
	r.seq++
	ev := &refEvent{at: t, head: form == 2, seq: r.seq, fn: fn}
	i := sort.Search(len(r.evs), func(i int) bool { return refLess(ev, r.evs[i]) })
	r.evs = slices.Insert(r.evs, i, ev)
	return func() bool {
		if ev.dead || ev.fired {
			return false
		}
		ev.dead = true
		r.dead++
		if r.dead > compactMinDead && r.dead > len(r.evs)-r.dead {
			r.evs = slices.DeleteFunc(r.evs, func(e *refEvent) bool { return e.dead })
			r.dead = 0
		}
		return true
	}
}

func (r *refCal) reserve(t Time) int {
	r.seq++
	r.marks = append(r.marks, &refEvent{at: t, seq: r.seq})
	return len(r.marks) - 1
}

func (r *refCal) file(h int, fn func()) {
	m := r.marks[h]
	ev := &refEvent{at: m.at, seq: m.seq, fn: fn}
	i := sort.Search(len(r.evs), func(i int) bool { return refLess(ev, r.evs[i]) })
	r.evs = slices.Insert(r.evs, i, ev)
}

func (r *refCal) passed(h int) bool { return r.marks[h].fired }

// fireMarks fires the markers before's key passes; nil passes the
// ones at or before the clock.
func (r *refCal) fireMarks(before *refEvent) {
	for _, m := range r.marks {
		if before == nil && m.at <= r.now || before != nil && refLess(m, before) {
			m.fired = true
		}
	}
}

func (r *refCal) peek() *refEvent {
	for len(r.evs) > 0 && r.evs[0].dead {
		r.evs = r.evs[1:]
		r.dead--
	}
	if len(r.evs) == 0 {
		return nil
	}
	return r.evs[0]
}

func (r *refCal) Step() bool {
	ev := r.peek()
	if ev == nil {
		r.fireMarks(nil)
		return false
	}
	r.evs = r.evs[1:]
	r.fireMarks(ev)
	r.now, ev.fired = ev.at, true
	ev.fn()
	return true
}

func (r *refCal) RunUntil(deadline Time) error {
	for ev := r.peek(); ev != nil && ev.at <= deadline; ev = r.peek() {
		r.Step()
	}
	if r.now < deadline {
		r.now = deadline
	}
	r.fireMarks(nil)
	return nil
}

// orderHorizons is the traffic's mix of how far ahead events land:
// same instant, one ≈ 60 ns hop, 1 µs and 25 µs link and pacing delays,
// a 10 ms retransmission timer, and one a second out, far past any
// window a calendar keeps.
var orderHorizons = [...]Duration{0, 60, Microsecond, 25 * Microsecond, 10 * Millisecond, Second}

// orderRun executes one program on one calendar and logs what fires.
type orderRun struct {
	c     orderCal
	seed  uint64
	log   []orderFiring
	last  []func() bool // per lane: the stop of its latest plain child
	stops int           // successful Stop calls
	lines []orderLine   // per lane: a transmitter, once slots are on
	slots bool          // the script has enabled slot ops in events
}

// orderLine is a port's transmitter in miniature: busy until the
// reserved slot's key, its completion filed only when a send meets it
// busy before that key.
type orderLine struct {
	busy bool
	slot int  // the handle, or -1 once filed
	at   Time // the slot's instant
}

type orderFiring struct {
	id         uint64
	at         Time
	size, live int
	passed     int // a Passed query's answer: 1 passed, -1 not; 0 on a firing
}

// horizon draws a delay from the mix; half of them get a jitter below
// the horizon itself, the rest keep exact values so ties stay common.
func horizon(rng *splitmix) Duration {
	d := orderHorizons[rng.next()%uint64(len(orderHorizons))]
	if d > 0 && rng.next()%2 == 0 {
		d += Duration(rng.next() % uint64(d))
	}
	return d
}

// send is a port's pump: a busy line whose slot has not passed files
// its completion and waits; otherwise the line takes a new slot, at an
// instant where another event may tie with it, scheduled before or
// after the reservation. A quarter of the slots are filed at once, as
// a port does when packets queue behind the one it sends.
func (o *orderRun) send(lane int, id uint64, budget int, rng *splitmix) {
	ln := &o.lines[lane]
	if ln.busy {
		if ln.slot < 0 {
			return // filed: its event clears busy
		}
		answer := -1
		if o.c.passed(ln.slot) {
			answer = 1
		}
		o.log = append(o.log, orderFiring{id, o.c.Now(), o.c.size(), o.c.Pending(), answer})
		if answer < 0 {
			o.file(lane, id, budget)
			return
		}
	}
	at := o.c.Now().Add(horizon(rng))
	tie := func(i uint64) {
		cid := id + i<<48
		o.c.sched(at, int(rng.next()%4), func() { o.fire(cid, budget/2) })
	}
	if rng.next()%2 == 0 {
		tie(1)
	}
	ln.busy, ln.slot, ln.at = true, o.c.reserve(at), at
	if rng.next()%2 == 0 {
		tie(2)
	}
	if rng.next()%4 == 0 {
		o.file(lane, id, budget)
	}
}

// file files lane's slot; its event frees the line and runs the
// program on from there.
func (o *orderRun) file(lane int, id uint64, budget int) {
	ln := &o.lines[lane]
	o.c.file(ln.slot, func() {
		ln.busy = false
		o.fire(id+3<<48, budget)
	})
	ln.slot = -1
}

func (o *orderRun) schedule(id uint64, budget int, rng *splitmix) func() bool {
	at := o.c.Now().Add(horizon(rng))
	form := int(rng.next() % 4)
	return o.c.sched(at, form, func() { o.fire(id, budget) })
}

// stopBurst schedules n events and cancels every one, which compacts
// the calendar once n passes compactMinDead.
func (o *orderRun) stopBurst(id uint64, n int, rng *splitmix) {
	for i := 0; i < n; i++ {
		if o.schedule(id+uint64(i)<<40, 0, rng)() {
			o.stops++
		}
	}
}

// fire is the body of every event: log, then a few operations drawn
// from the event's own id, so both calendars run the same program as
// long as they fire in the same order. budget bounds the lineage.
func (o *orderRun) fire(id uint64, budget int) {
	o.log = append(o.log, orderFiring{id, o.c.Now(), o.c.size(), o.c.Pending(), 0})
	rng := splitmix(id ^ o.seed)
	nops := 1 + int(rng.next()%4)
	if budget <= 0 {
		return
	}
	share := (budget - 1) / nops
	lane := int(id % uint64(len(o.last)))
	kinds := uint64(8)
	if o.slots {
		kinds = 10
	}
	for op := 0; op < nops; op++ {
		cid := id*0x100000001b3 + uint64(op) + 1
		switch rng.next() % kinds {
		case 0, 1, 2, 3:
			o.schedule(cid, share, &rng)
		case 4:
			o.last[lane] = o.schedule(cid, share, &rng)
		case 5:
			if o.last[lane] != nil && o.last[lane]() {
				o.stops++
			}
		case 6:
			if rng.next()%8 == 0 {
				o.stopBurst(cid, 2*compactMinDead+int(rng.next()%64), &rng)
			} else if o.schedule(cid, share, &rng)() {
				o.stops++
			}
		case 7:
			// A pair at one instant: the second must follow the first
			// unless it is a head event.
			at := o.c.Now().Add(horizon(&rng))
			for i := uint64(0); i < 2; i++ {
				cid := cid + i<<32
				o.c.sched(at, int(rng.next()%4), func() { o.fire(cid, share/2) })
			}
		case 8, 9:
			o.send((lane+int(rng.next()%2))%len(o.lines), cid, share, &rng)
		}
	}
}

// runOrderProgram drives c through script: each byte is one top-level
// step — run to a deadline (often mid-bucket, and then the next
// schedule lands behind whatever the calendar peeked at), schedule a
// root event, a cancellation burst, a few single Steps, or (op 3 with
// arg ≥ 8) a send from outside any event, which also turns on sends
// inside events and, for arg ≥ 32, first runs to the lane's slot
// instant — and then drains the calendar.
func runOrderProgram(c orderCal, seed uint64, script []byte) *orderRun {
	o := &orderRun{c: c, seed: seed, last: make([]func() bool, 3), lines: make([]orderLine, 3)}
	rng := splitmix(seed)
	for i, b := range script {
		if i == 64 {
			break
		}
		arg := int(b >> 2)
		switch b & 3 {
		case 0:
			deadline := c.Now().Add(Duration(arg) * 7)
			if arg >= 32 {
				deadline = c.Now().Add(horizon(&rng))
			}
			c.RunUntil(deadline)
		case 1:
			o.schedule(rng.next(), 100+4*arg, &rng)
		case 2:
			o.stopBurst(rng.next(), arg+compactMinDead*(arg%3), &rng)
		case 3:
			if arg < 8 {
				for j := 0; j < arg; j++ {
					c.Step()
				}
				break
			}
			o.slots = true
			lane := arg % 3
			if ln := o.lines[lane]; arg >= 32 && ln.busy && ln.slot >= 0 && ln.at >= c.Now() {
				c.RunUntil(ln.at)
			}
			o.send(lane, rng.next(), 100+4*(arg%8), &rng)
		}
		o.log = append(o.log, orderFiring{^uint64(0), c.Now(), c.size(), c.Pending(), 0})
	}
	for c.Step() {
	}
	return o
}

func checkEngineOrder(t *testing.T, seed uint64, script []byte) {
	t.Helper()
	want := runOrderProgram(&refCal{}, seed, script)
	e := NewEngine()
	got := runOrderProgram(&engCal{Engine: e}, seed, script)
	if got.stops != want.stops {
		t.Errorf("seed %#x: %d successful stops, oracle has %d", seed, got.stops, want.stops)
	}
	for i := range want.log {
		if i >= len(got.log) {
			t.Fatalf("seed %#x: engine logged %d steps, oracle %d", seed, len(got.log), len(want.log))
		}
		if got.log[i] != want.log[i] {
			t.Fatalf("seed %#x: step %d is %+v, oracle has %+v", seed, i, got.log[i], want.log[i])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("seed %#x: engine logged %d steps, oracle %d", seed, len(got.log), len(want.log))
	}
	if e.heapLen() != 0 || livePending(e) != 0 {
		t.Fatalf("seed %#x: drained engine holds %d entries, %d live", seed, e.heapLen(), livePending(e))
	}
}

// FuzzEngineOrder is the calendar's differential test: the Engine fires
// every program in the oracle's order with the oracle's entry counts.
func FuzzEngineOrder(f *testing.F) {
	rng := splitmix(0x5eed)
	for i := 0; i < 24; i++ {
		script := make([]byte, 8+i)
		for j := range script {
			script[j] = byte(rng.next())
		}
		f.Add(rng.next(), script)
	}
	f.Fuzz(checkEngineOrder)
}
