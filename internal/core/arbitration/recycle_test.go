package arbitration

import (
	"strings"
	"testing"

	"pase/internal/check"
	"pase/internal/netem"
	"pase/internal/sim"
)

// TestReleasedEntryPoisoned: under the invariant checker an entry that
// left the table is retired, not recycled, and an allocation pass that
// still reaches it through a stale sorted pointer trips the checker
// instead of silently reordering a neighbour's flows.
func TestReleasedEntryPoisoned(t *testing.T) {
	p := NewEntryPool()
	_, a := newArb(netem.Gbps)
	a.DrawFrom(p)
	a.AttachCheck(check.NewStrict(nil))
	a.Update(1, 10, netem.Gbps)
	a.Update(2, 20, netem.Gbps)
	idle := p.free.Len()
	a.Remove(2)
	if p.free.Len() != idle {
		t.Fatal("a released entry went back into circulation under the checker")
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "released entry") {
			t.Fatalf("pass over a stale sorted slice: recovered %v, want the released-entry violation", r)
		}
	}()
	a.checkAllocation() // sorted still holds flow 2's entry: Remove does not rebuild it
}

// TestEntriesRecycleAcrossArbitrators: without a checker, entries freed
// by Remove, lease expiry and Crash all go back to the shared list and
// start over whole for whichever arbitrator registers a flow next.
func TestEntriesRecycleAcrossArbitrators(t *testing.T) {
	p := NewEntryPool()
	var now sim.Time
	clock := func() sim.Time { return now }
	mk := func(id int) *Arbitrator {
		return NewArbitrator(id, netem.Gbps, 8, 40*netem.Mbps, 300*sim.Microsecond, clock).DrawFrom(p)
	}
	a, b := mk(0), mk(1)
	a.Update(1, 10, netem.Gbps)
	a.Update(2, 20, netem.Gbps)
	a.Update(3, 30, netem.Gbps)
	idle := p.free.Len()
	a.Remove(1)
	now = now.Add(9 * 300 * sim.Microsecond) // past the 8-epoch lease
	a.Update(3, 30, netem.Gbps)              // the pass expires flow 2
	a.Crash()                                // and the wipe returns flow 3
	if got := p.free.Len() - idle; got != 3 {
		t.Fatalf("Remove + expiry + Crash returned %d entries, want 3", got)
	}
	if d := b.Update(7, 99, 300*netem.Mbps); d.Queue != 0 || d.Rref != 300*netem.Mbps || b.Flows() != 1 {
		t.Fatalf("a recycled entry changed a fresh registration: %+v, %d flows", d, b.Flows())
	}
	want := entry{flow: 7, key: 99, demand: 300 * netem.Mbps, lease: now.Add(leaseEpochs * b.period), decision: Decision{Rref: 300 * netem.Mbps}}
	if e := b.entries[7]; *e != want {
		t.Fatalf("a recycled entry kept state from its last life: %+v, want %+v", *e, want)
	}
}

// TestEarlyStartCheck: the checker accepts a PDQ arbitrator's Early
// Start grant in queue 1 and flags a rate other than the base rate in
// any lower queue.
func TestEarlyStartCheck(t *testing.T) {
	a := NewArbitrator(0, netem.Gbps, 3, 0, 0, func() sim.Time { return 0 })
	a.AttachCheck(check.NewStrict(nil))
	a.Grant(1, 1, 1500, netem.Gbps, 100*sim.Microsecond)
	if got := a.Grant(2, 2, 1500, netem.Gbps, 100*sim.Microsecond); got != netem.Gbps || a.entries[2].decision.Queue != 1 {
		t.Fatalf("second flow granted %v in queue %d, want an Early Start at full rate in queue 1", got, a.entries[2].decision.Queue)
	}
	a.entries[2].decision.Queue = 2
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "Early Start") {
			t.Fatalf("a full-rate grant in queue 2: recovered %v, want the Early Start violation", r)
		}
	}()
	a.checkAllocation()
}
