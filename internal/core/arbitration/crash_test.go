package arbitration

import (
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
)

func TestCrashWipesSoftState(t *testing.T) {
	_, a := newArb(netem.Gbps)
	a.Update(1, 10, netem.Gbps)
	a.Update(2, 20, 400*netem.Mbps)
	if a.Flows() != 2 {
		t.Fatalf("flows = %d, want 2", a.Flows())
	}
	a.Crash()
	if !a.Down() {
		t.Fatal("arbitrator not down after Crash")
	}
	if a.Flows() != 0 {
		t.Fatalf("crash kept %d entries, want 0", a.Flows())
	}
	if _, ok := lookup(a, 1); ok {
		t.Fatal("lookup found a flow after the soft-state wipe")
	}
}

func TestRestoreRebuildsFromRefreshes(t *testing.T) {
	_, a := newArb(netem.Gbps)
	a.Update(1, 10, netem.Gbps)
	a.Update(2, 20, netem.Gbps)
	a.Crash()
	a.Restore()
	if a.Down() {
		t.Fatal("arbitrator still down after Restore")
	}
	// The restarted arbitrator starts empty; the first refresh to
	// arrive sees the whole link as spare regardless of its old rank.
	d := a.Update(2, 20, netem.Gbps)
	if d.Queue != 0 || d.Rref != netem.Gbps {
		t.Fatalf("first post-restart refresh got %+v, want top queue at line rate", d)
	}
	// A later refresh with a larger key ranks behind it, exactly as on
	// a cold start.
	if d := a.Update(3, 30, netem.Gbps); d.Queue != 1 {
		t.Fatalf("second post-restart refresh queue = %d, want 1", d.Queue)
	}
	if a.Flows() != 2 {
		t.Fatalf("flows after rebuild = %d, want 2", a.Flows())
	}
}

func TestRepeatedCrashCycles(t *testing.T) {
	_, a := newArb(netem.Gbps)
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 4; i++ {
			a.Update(pkt.FlowID(i+1), int64(i), netem.Gbps)
		}
		if a.Flows() != 4 {
			t.Fatalf("cycle %d: flows = %d, want 4", cycle, a.Flows())
		}
		a.Crash()
		a.Restore()
		if a.Flows() != 0 {
			t.Fatalf("cycle %d: flows after crash = %d, want 0", cycle, a.Flows())
		}
	}
}
