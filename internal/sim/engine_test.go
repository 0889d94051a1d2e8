package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// livePending is the number of live (not cancelled) events queued.
func livePending(e *Engine) int { return e.cal.n - e.dead }

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*Microsecond, func() { got = append(got, 3) })
	e.Schedule(1*Microsecond, func() { got = append(got, 1) })
	e.Schedule(2*Microsecond, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(3*Microsecond) {
		t.Fatalf("final time = %v, want 3µs", e.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Microsecond, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events ran out of scheduling order: %v", got)
		}
	}
}

func TestAtHeadWinsTimestampTies(t *testing.T) {
	e := NewEngine()
	var got []string
	at := Time(5 * Microsecond)
	e.At(at, func() { got = append(got, "at1") })
	e.AtHead(at, func() { got = append(got, "head1") })
	e.At(at, func() { got = append(got, "at2") })
	e.AtHead(at, func() { got = append(got, "head2") })
	e.At(at.Add(Microsecond), func() { got = append(got, "later") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// AtHead events beat every At event at the same instant but keep
	// FIFO order among themselves; later timestamps still fire later.
	want := []string{"head1", "head2", "at1", "at2", "later"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

func TestAtHeadStopAndRecycle(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.AtHead(Time(Microsecond), func() { fired = true })
	if !tm.Stop() {
		t.Fatal("pending AtHead timer must stop")
	}
	// The recycled record must not leak head status into a plain At.
	var got []string
	at := Time(2 * Microsecond)
	e.At(at, func() { got = append(got, "first") })
	e.At(at, func() { got = append(got, "second") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped AtHead event fired")
	}
	if len(got) != 2 || got[0] != "first" {
		t.Fatalf("recycled head bit perturbed FIFO order: %v", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(Microsecond, func() {
		fired = append(fired, e.Now())
		e.Schedule(Microsecond, func() {
			fired = append(fired, e.Now())
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != Time(Microsecond) || fired[1] != Time(2*Microsecond) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	ran := false
	tm := e.Schedule(Millisecond, func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("stopped timer fired")
	}
	var zero Timer
	if zero.Stop() {
		t.Fatal("zero timer Stop should be false")
	}
	if zero.Pending() {
		t.Fatal("zero timer should not be pending")
	}
}

func TestStopSemanticsUnderLazyDeletion(t *testing.T) {
	// A stopped timer reports Pending() == false immediately, and
	// livePending does not count dead calendar entries even though
	// lazy deletion leaves them in the heap until they surface.
	e := NewEngine()
	var timers []Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, e.Schedule(Duration(i+1)*Microsecond, func() {}))
	}
	if livePending(e) != 10 {
		t.Fatalf("pending = %d, want 10", livePending(e))
	}
	for i := 0; i < 5; i++ {
		if !timers[i].Stop() {
			t.Fatalf("Stop %d should report true", i)
		}
		if timers[i].Pending() {
			t.Fatalf("timer %d still pending after Stop", i)
		}
	}
	if livePending(e) != 5 {
		t.Fatalf("pending = %d after 5 stops, want 5", livePending(e))
	}
	var fired int
	e.Schedule(20*Microsecond, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if livePending(e) != 0 {
		t.Fatalf("pending = %d after drain, want 0", livePending(e))
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestStaleHandleIsInert(t *testing.T) {
	// After a timer fires, its record is recycled for later events; a
	// retained handle must not be able to stop the unrelated successor.
	e := NewEngine()
	tm := e.Schedule(Microsecond, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ran := false
	fresh := e.Schedule(Microsecond, func() { ran = true })
	if tm.Stop() {
		t.Fatal("stale Stop should report false")
	}
	if tm.Pending() {
		t.Fatal("stale handle should not be pending")
	}
	if !fresh.Pending() {
		t.Fatal("stale Stop must not cancel the recycled event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("successor event did not fire")
	}
}

func TestDrainedEngineRetainsNothing(t *testing.T) {
	// A drained engine must hold no live closure references: every
	// record is either on the bounded free list with a nil target or was
	// released to the GC. This is the leak regression for the old
	// eventHeap, which kept popped *Timer slots reachable via the
	// backing array's capacity.
	e := NewEngine()
	const n = 3 * maxFree
	for i := 0; i < n; i++ {
		e.Schedule(Duration(i)*Microsecond, func() {})
	}
	for e.Step() {
	}
	if got := e.heapLen(); got != 0 {
		t.Fatalf("drained heap holds %d records", got)
	}
	if got := e.free.Len(); got > maxFree {
		t.Fatalf("free list = %d records, cap is %d", got, maxFree)
	}
	for e.free.Len() > 0 {
		if ev := e.free.Take(); ev.act != nil || ev.arg != nil {
			t.Fatal("recycled record still references its callback")
		}
	}
}

func TestCancellationHeavyHeapCompacts(t *testing.T) {
	// Schedule-then-cancel churn (retransmission timers) must not grow
	// the calendar without bound: compaction keeps dead records at most
	// on par with live ones (plus the small fixed floor).
	e := NewEngine()
	keep := e.Schedule(Second, func() {})
	for i := 0; i < 100_000; i++ {
		e.Schedule(Millisecond, func() {}).Stop()
	}
	if got := e.heapLen(); got > 2*compactMinDead+2 {
		t.Fatalf("heap holds %d records after churn, want bounded", got)
	}
	if !keep.Pending() {
		t.Fatal("live timer lost during compaction")
	}
	if livePending(e) != 1 {
		t.Fatalf("pending = %d, want 1", livePending(e))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMixedHorizonAllocs pins a warm engine under fig-9a's horizon mix
// at zero allocations, through everything the calendar does besides
// bucketing: sorted inserts into the current bucket, overflow pushes,
// migration into the window and compaction of cancelled timers.
func TestMixedHorizonAllocs(t *testing.T) {
	m := newMixedLoad(256)
	for i := 0; i < 50_000; i++ {
		m.op()
	}
	far, compactions := m.far.fired, m.compactions
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 100; i++ {
			m.op()
		}
	})
	if allocs != 0 {
		t.Errorf("mixed schedule+fire allocates %.2f times per 100 ops, want 0", allocs)
	}
	if m.far.fired == far {
		t.Error("no event from past the window fired: migration was not exercised")
	}
	if m.compactions == compactions {
		t.Error("no compaction ran: cancelled timers were not exercised")
	}
}

func TestStopMidHeap(t *testing.T) {
	// Cancel an event in the middle of the heap and check the rest
	// still fire in order.
	e := NewEngine()
	var got []int
	var timers []Timer
	for i := 0; i < 20; i++ {
		i := i
		timers = append(timers, e.Schedule(Duration(i+1)*Microsecond, func() { got = append(got, i) }))
	}
	timers[7].Stop()
	timers[13].Stop()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, v := range got {
		if v == 7 || v == 13 {
			t.Fatalf("cancelled event %d fired", v)
		}
		if v <= prev {
			t.Fatalf("out of order: %v", got)
		}
		prev = v
	}
	if len(got) != 18 {
		t.Fatalf("got %d events, want 18", len(got))
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 1; i <= 10; i++ {
		e.Schedule(Duration(i)*Millisecond, func() { count++ })
	}
	if err := e.RunUntil(Time(5 * Millisecond)); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != Time(5*Millisecond) {
		t.Fatalf("now = %v, want 5ms", e.Now())
	}
	if livePending(e) != 5 {
		t.Fatalf("pending = %d, want 5", livePending(e))
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 1; i <= 10; i++ {
		e.Schedule(Duration(i)*Millisecond, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine()
	e.Limit = 100
	var tick func()
	tick = func() { e.Schedule(Microsecond, tick) }
	e.Schedule(0, tick)
	if err := e.Run(); err == nil {
		t.Fatal("expected event-limit error")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(0, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-5, func() { ran = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || e.Now() != 0 {
		t.Fatalf("negative delay should fire at t=0 (ran=%v now=%v)", ran, e.Now())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds must produce equal streams")
		}
	}
	c := NewRand(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRand(42).Split(uint64(i)).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds look correlated: %d collisions", same)
	}
}

func TestRandUniformBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		n := r.UniformInt(10, 20)
		if n < 10 || n > 20 {
			t.Fatalf("UniformInt out of range: %v", n)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.05 {
		t.Fatalf("Exp mean = %v, want ≈3.0", mean)
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(5)
	f := func(n uint8) bool {
		size := int(n%64) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	if t0.Add(50) != Time(150) {
		t.Fatal("Add")
	}
	if Time(150).Sub(t0) != Duration(50) {
		t.Fatal("Sub")
	}
	if (2 * Millisecond).Seconds() != 0.002 {
		t.Fatal("Seconds()")
	}
	if (1500 * Microsecond).Millis() != 1.5 {
		t.Fatal("Millis()")
	}
}
