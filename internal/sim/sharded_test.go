package sim

import (
	"strings"
	"testing"

	"pase/internal/obs"
)

func TestNewShardedEngineErrors(t *testing.T) {
	if _, err := NewShardedEngine(0, Microsecond); err == nil {
		t.Error("0 shards: want error, got nil")
	}
	_, err := NewShardedEngine(2, 0)
	if err == nil {
		t.Fatal("zero lookahead: want error, got nil")
	}
	if !strings.Contains(err.Error(), "zero-propagation-delay") {
		t.Errorf("zero-lookahead error should explain the cut-edge constraint, got: %v", err)
	}
	if _, err := NewShardedEngine(2, -Microsecond); err == nil {
		t.Error("negative lookahead: want error, got nil")
	}
}

// pingPong bounces one event chain between two shards via Handoff for
// n hops, running the first parallelWindows barriers concurrently and
// the rest on the serial tail. It returns the hop timestamps in
// execution order. forceWorkers pins the worker-goroutine barrier path
// even on a single-core machine (where the coordinator runs every
// shard by default).
func pingPong(t *testing.T, n, parallelWindows int, forceWorkers bool) []Time {
	t.Helper()
	const lookahead = 100
	se, err := NewShardedEngine(2, lookahead)
	if err != nil {
		t.Fatal(err)
	}
	if forceWorkers {
		se.workerDone = make([]paddedU64, 1)
	}
	defer se.Close()

	var times []Time
	var step func(shard int, at Time)
	step = func(shard int, at Time) {
		times = append(times, at)
		if len(times) >= n {
			return
		}
		eng := se.Shard(shard)
		ctx, k := eng.ChildSlot()
		to := 1 - shard
		se.Handoff(shard, to, at+lookahead, ctx, k, func() { step(to, at+lookahead) })
	}
	se.Shard(0).At(0, func() { step(0, 0) })

	for w := 0; w < parallelWindows; w++ {
		at, ok := se.MinPendingTime()
		if !ok {
			break
		}
		se.StepWindow(at + lookahead)
	}
	se.RunTail()
	return times
}

func TestShardedPingPong(t *testing.T) {
	const hops = 64
	want := pingPong(t, hops, 0, false) // pure tail = serial reference
	if len(want) != hops {
		t.Fatalf("serial reference ran %d hops, want %d", len(want), hops)
	}
	for _, forceWorkers := range []bool{false, true} {
		for _, windows := range []int{1, 7, hops} {
			got := pingPong(t, hops, windows, forceWorkers)
			if len(got) != len(want) {
				t.Fatalf("windows=%d workers=%v: %d hops, want %d", windows, forceWorkers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("windows=%d workers=%v: hop %d at t=%d, want t=%d",
						windows, forceWorkers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestShardedStopInParallelWindowPanics(t *testing.T) {
	for _, forceWorkers := range []bool{false, true} {
		func() {
			se, err := NewShardedEngine(2, 100)
			if err != nil {
				t.Fatal(err)
			}
			if forceWorkers {
				se.workerDone = make([]paddedU64, 1)
			}
			defer se.Close()
			eng := se.Shard(0)
			eng.At(10, func() { eng.Stop() })
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%v: Stop inside a parallel window should panic at the barrier", forceWorkers)
				}
			}()
			se.StepWindow(100)
		}()
	}
}

func TestShardedObsCounters(t *testing.T) {
	const lookahead = 100
	se, err := NewShardedEngine(2, lookahead)
	if err != nil {
		t.Fatal(err)
	}
	se.workerDone = make([]paddedU64, 1) // stall is only defined with a worker to wait for
	defer se.Close()
	reg := obs.NewRegistry()
	se.Instrument(reg)

	var step func(shard int, at Time)
	hops := 0
	step = func(shard int, at Time) {
		hops++
		if hops >= 16 {
			return
		}
		ctx, k := se.Shard(shard).ChildSlot()
		to := 1 - shard
		se.Handoff(shard, to, at+lookahead, ctx, k, func() { step(to, at+lookahead) })
	}
	se.Shard(0).At(0, func() { step(0, 0) })
	for w := 0; w < 8; w++ {
		at, ok := se.MinPendingTime()
		if !ok {
			break
		}
		se.StepWindow(at + lookahead)
	}
	se.RunTail()

	snap := reg.Snapshot()
	counter := func(name string) int64 {
		v, ok := snap.Counters[name]
		if !ok {
			t.Fatalf("counter %q missing from snapshot", name)
		}
		return v
	}
	if counter("shard/windows") != 8 {
		t.Errorf("shard/windows = %d, want 8", counter("shard/windows"))
	}
	if counter("shard/handoffs") == 0 {
		t.Error("shard/handoffs = 0, want > 0")
	}
	if counter("shard/tail_events") == 0 {
		t.Error("shard/tail_events = 0, want > 0")
	}
	// Each ping-pong window leaves one shard with nothing to send.
	if counter("shard/null_windows") == 0 {
		t.Error("shard/null_windows = 0, want > 0")
	}
	// The ping-pong leaves one shard idle each window, so somebody
	// stalls in every one — shard 0, which the coordinator runs, counted
	// like shard 1 — and the per-shard split adds up.
	if counter("shard/stall_ns") <= 0 {
		t.Error("shard/stall_ns = 0, want > 0")
	}
	if sum := counter("shard/stall_ns/0") + counter("shard/stall_ns/1"); sum != counter("shard/stall_ns") {
		t.Errorf("shard/stall_ns/0 + /1 = %d, want shard/stall_ns = %d", sum, counter("shard/stall_ns"))
	}
	// Eight barriers stamped ranks and released handoffs.
	if counter("shard/barrier_ns") <= 0 {
		t.Error("shard/barrier_ns = 0, want > 0")
	}
}

// TestShardedHandoffAllocs pins the steady-state handoff capture path
// at zero allocations: once the outbox has grown, buffering and
// draining a cross-shard event must not allocate.
func TestShardedHandoffAllocs(t *testing.T) {
	se, err := NewShardedEngine(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	fn := func() {}
	for i := 0; i < 64; i++ {
		se.Handoff(0, 1, Time(i), nil, uint64(i), fn)
	}
	se.outbox[0] = se.outbox[0][:0]
	allocs := testing.AllocsPerRun(200, func() {
		se.Handoff(0, 1, 5, nil, 0, fn)
		se.outbox[0] = se.outbox[0][:0]
	})
	if allocs != 0 {
		t.Errorf("steady-state Handoff allocates %.1f times per op, want 0", allocs)
	}
}
