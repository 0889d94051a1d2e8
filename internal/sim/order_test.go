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

// orderCal is what a program drives: the Engine or the oracle.
type orderCal interface {
	Now() Time
	sched(t Time, form int, fn func()) (stop func() bool)
	Step() bool
	RunUntil(deadline Time) error
	Pending() int
	size() int
}

// engCal adapts an Engine. form picks the scheduling call.
type engCal struct{ *Engine }

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
type refCal struct {
	now  Time
	seq  uint64
	evs  []*refEvent
	dead int
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
		return false
	}
	r.evs = r.evs[1:]
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
}

type orderFiring struct {
	id         uint64
	at         Time
	size, live int
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
	o.log = append(o.log, orderFiring{id, o.c.Now(), o.c.size(), o.c.Pending()})
	rng := splitmix(id ^ o.seed)
	nops := 1 + int(rng.next()%4)
	if budget <= 0 {
		return
	}
	share := (budget - 1) / nops
	lane := int(id % uint64(len(o.last)))
	for op := 0; op < nops; op++ {
		cid := id*0x100000001b3 + uint64(op) + 1
		switch rng.next() % 8 {
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
		}
	}
}

// runOrderProgram drives c through script: each byte is one top-level
// step — run to a deadline (often mid-bucket, and then the next
// schedule lands behind whatever the calendar peeked at), schedule a
// root event, a cancellation burst, or a few single Steps — and then
// drains the calendar.
func runOrderProgram(c orderCal, seed uint64, script []byte) *orderRun {
	o := &orderRun{c: c, seed: seed, last: make([]func() bool, 3)}
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
			for j := 0; j < arg%8; j++ {
				c.Step()
			}
		}
		o.log = append(o.log, orderFiring{^uint64(0), c.Now(), c.size(), c.Pending()})
	}
	for c.Step() {
	}
	return o
}

func checkEngineOrder(t *testing.T, seed uint64, script []byte) {
	t.Helper()
	want := runOrderProgram(&refCal{}, seed, script)
	e := NewEngine()
	got := runOrderProgram(engCal{e}, seed, script)
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
	if e.heapLen() != 0 || e.Pending() != 0 {
		t.Fatalf("seed %#x: drained engine holds %d entries, %d live", seed, e.heapLen(), e.Pending())
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
