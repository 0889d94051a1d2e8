package sim

import (
	"reflect"
	"testing"
)

// recorder is a test Action: it appends its argument (a *int label) to
// a shared log.
type recorder struct{ log *[]int }

func (r *recorder) Fire(arg any) { *r.log = append(*r.log, *arg.(*int)) }

// interleaved schedules closures, actions and head events at a single
// timestamp, from setup and from inside an executing event, and
// returns the firing order.
func interleaved(e *Engine) []int {
	var got []int
	rec := &recorder{log: &got}
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i
	}
	mark := func(i int) func() { return func() { got = append(got, i) } }
	const at = Time(10)

	e.At(at, mark(0))
	e.ScheduleAction(Duration(at), rec, &labels[1])
	e.AtHead(at, mark(2))
	e.ScheduleAction(Duration(at), rec, &labels[3])
	e.At(at, func() {
		got = append(got, 4)
		// Children of one event, same instant: call order decides.
		e.ScheduleAction(0, rec, &labels[5])
		e.Schedule(0, mark(6))
		e.ScheduleAction(0, rec, &labels[7])
	})
	e.ScheduleAction(Duration(at), rec, &labels[8]).Stop()
	e.At(at, mark(9))
	for e.Step() {
	}
	return got
}

// TestActionSharesClosureTieBreak pins the action/closure contract: an
// action event takes exactly the seq (serial) or rank child slot
// (ranked) a closure scheduled by the same call would have, so mixing
// the two forms cannot move any tie-break — and a ranked engine orders
// the mix exactly as the serial one does.
func TestActionSharesClosureTieBreak(t *testing.T) {
	want := []int{2, 0, 1, 3, 4, 9, 5, 6, 7}
	if got := interleaved(NewEngine()); !reflect.DeepEqual(got, want) {
		t.Errorf("serial order = %v, want %v", got, want)
	}
	se, err := NewShardedEngine(1, Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if got := interleaved(se.Shard(0)); !reflect.DeepEqual(got, want) {
		t.Errorf("ranked order = %v, want %v", got, want)
	}
}

// TestStoppedActionReleasesTarget: Stop must drop the action and its
// argument at once, like it drops a closure.
func TestStoppedActionReleasesTarget(t *testing.T) {
	e := NewEngine()
	x := 1
	tm := e.ScheduleAction(Microsecond, &recorder{}, &x)
	if !tm.Stop() {
		t.Fatal("Stop on a pending action timer reported false")
	}
	if tm.ev.act != nil || tm.ev.arg != nil {
		t.Fatal("stopped record still references its action")
	}
}

type nopAction struct{}

func (*nopAction) Fire(any) {}

// TestScheduleActionAllocs pins the steady-state action schedule+fire
// cycle at zero allocations: with a warm record free list, neither the
// target nor a pointer argument costs an object.
func TestScheduleActionAllocs(t *testing.T) {
	e := NewEngine()
	a, arg := &nopAction{}, new(int)
	for i := 0; i < 64; i++ {
		e.ScheduleAction(Duration(i), a, arg)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleAction(64, a, arg)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("ScheduleAction+Step allocates %.1f times per op, want 0", allocs)
	}
}

// TestHandoffActionAllocs is TestShardedHandoffAllocs for the action
// form, end to end: capture, barrier injection and firing on the
// destination shard allocate nothing once outbox, calendar and free
// list are warm.
func TestHandoffActionAllocs(t *testing.T) {
	const lookahead = 100
	se, err := NewShardedEngine(2, lookahead)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	a, arg := &nopAction{}, new(int)
	window := func() {
		at := se.Now().Add(lookahead)
		for i := 0; i < 8; i++ {
			se.HandoffAction(0, 1, at, nil, se.SetupSlot(), a, arg)
		}
		se.StepWindow(at)
	}
	for i := 0; i < 4; i++ {
		window()
	}
	before := se.Shard(1).Executed
	if allocs := testing.AllocsPerRun(200, window); allocs != 0 {
		t.Errorf("HandoffAction window allocates %.1f times, want 0", allocs)
	}
	if se.Shard(1).Executed == before {
		t.Fatal("handed-off actions never fired")
	}
}
