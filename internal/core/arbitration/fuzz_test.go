package arbitration

import (
	"testing"

	"pase/internal/check"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// FuzzArbitrator drives one arbitrator through arbitrary interleavings
// of registrations, refreshes, removals, crashes, capacity changes and
// clock jumps. The attached strict checker verifies Algorithm 1's
// feasibility conditions — top-queue reference rates sum to at most the
// capacity, no negative rate, queue indices in range — after every
// allocation pass; the target adds the per-decision bounds a caller
// relies on.
//
// That arbitrator is standalone — its entries come from the allocator —
// and doubles as the oracle for a pooled twin fed the same ops, which
// shares its free list and sort scratch with a neighbour churning
// entries of its own (unchecked, so entries really recycle): the twin must return the same
// decisions and hold the same flows, i.e. a recycled entry never
// carries a key, lease or decision into its next life.
func FuzzArbitrator(f *testing.F) {
	f.Add([]byte{8, 0x01, 0x22, 0x43, 0x64, 0x85, 0xa6, 0xc7, 0xe8})
	f.Add([]byte{1, 0xff, 0x00, 0x3f, 0x7f, 0xbf, 0x20, 0x60})
	f.Add([]byte{200, 0x10, 0x11, 0x12, 0x13, 0xd4, 0xd5, 0x16, 0x97})
	f.Add([]byte("00A\xf9\x82"))                            // a lookup whose pass expires the flow it asked about
	f.Add([]byte{8, 3, 0x01, 0x02, 0xbe, 0x01, 0x43, 0x80}) // crash + restore between refreshes
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := netem.BitRate(1+int(data[0])) * 10 * netem.Mbps
		numQueues := 2 + int(data[1])%7
		base := 40 * netem.Mbps
		var now sim.Time
		a := NewArbitrator(0, capacity, numQueues, base, 300*sim.Microsecond,
			func() sim.Time { return now })
		a.AttachCheck(check.NewStrict(func() int64 { return int64(now) }))
		entries := NewEntryPool()
		twin := NewArbitrator(0, capacity, numQueues, base, 300*sim.Microsecond,
			func() sim.Time { return now }).DrawFrom(entries)
		neighbour := NewArbitrator(1, capacity, numQueues, base, 300*sim.Microsecond,
			func() sim.Time { return now }).DrawFrom(entries)

		for i, op := range data[2:] {
			flow := pkt.FlowID(op%13 + 1)
			// The neighbour turns the shared pool over between ops.
			neighbour.Update(pkt.FlowID(i%5), int64(op), netem.Gbps)
			neighbour.Remove(pkt.FlowID((i + 2) % 5))
			switch op >> 6 {
			case 0, 1: // register / refresh
				demand := netem.BitRate(1+int(op)*7) * netem.Mbps
				key := int64(op) * 1000
				d := a.Update(flow, key, demand)
				if got := twin.Update(flow, key, demand); got != d {
					t.Fatalf("op %d: pooled arbitrator decided %+v, oracle %+v", i, got, d)
				}
				if d.Queue < 0 || int(d.Queue) >= numQueues {
					t.Fatalf("op %d: queue %d outside [0,%d)", i, d.Queue, numQueues)
				}
				if d.Rref < 0 {
					t.Fatalf("op %d: negative Rref %v", i, d.Rref)
				}
				if d.Queue == 0 && d.Rref > a.Capacity() {
					t.Fatalf("op %d: top-queue Rref %v exceeds capacity %v",
						i, d.Rref, a.Capacity())
				}
			case 2: // remove, crash + restore, or look up
				switch {
				case op&1 != 0:
					a.Remove(flow)
					twin.Remove(flow)
				case op&0x3e == 0x3e:
					for _, x := range []*Arbitrator{a, twin} {
						x.Crash()
						x.Restore()
					}
				default:
					d, ok := lookup(a, flow)
					if ok && d.Rref < 0 {
						t.Fatalf("op %d: lookup returned negative Rref", i)
					}
					if got, gotOK := lookup(twin, flow); got != d || gotOK != ok {
						t.Fatalf("op %d: pooled lookup (%+v, %v), oracle (%+v, %v)", i, got, gotOK, d, ok)
					}
				}
			case 3: // clock jump or capacity change (delegation resize)
				if op&1 != 0 {
					now = now.Add(sim.Duration(int(op&0x3e)) * 50 * sim.Microsecond)
				} else {
					c := netem.BitRate(int(op&0x3e)+1) * 25 * netem.Mbps
					a.SetCapacity(c)
					twin.SetCapacity(c)
				}
			}
			if a.Flows() != twin.Flows() {
				t.Fatalf("op %d: pooled arbitrator holds %d flows, oracle %d", i, twin.Flows(), a.Flows())
			}
		}
		// A final full pass under the checker: expire nothing, recompute
		// everything at the current clock.
		if got, want := twin.AggregateTopDemand(int8(numQueues-1)), a.AggregateTopDemand(int8(numQueues-1)); got != want {
			t.Fatalf("final pass: pooled aggregate %v, oracle %v", got, want)
		}
		if a.Flows() < 0 {
			t.Fatal("negative flow count")
		}
	})
}
