package arbitration

import (
	"testing"

	"pase/internal/check"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// FuzzArbitrationTree drives a full multi-level hierarchy — nodes,
// delegated slices and root shards — through arbitrary interleavings
// of pruned refresh climbs, releases, share rebalances, clock jumps
// and node crashes. The strict checker attached to every arbitrator
// panics the moment any level's allocation turns infeasible; the
// target adds the system-level invariants the climb relies on: path
// shape, decision bounds, release-where-registered, and no state on a
// crashed arbitrator.
func FuzzArbitrationTree(f *testing.F) {
	f.Add([]byte("\x10\x02\x00climb-release-rebalance-seed"))
	f.Add([]byte("\x1f\x03\x02shard\x80\x81\xc2\xc3release\x42\x43"))
	f.Add([]byte("\x01\x02\x01degenerate-one-rack\xff\x00\x7f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		racks := 1 + int(data[0])%32
		h := HierarchyParams{FanOut: 2 + int(data[1])%4, TopShards: int(data[2]) % 3}
		var now sim.Time
		tr := newTree(nil, h, racks, testRackCap, testTopCap, testQueues, testBase,
			testPeriod, func() sim.Time { return now }, TreeUpIDBase)
		if tr == nil {
			t.Fatal("newTree returned nil for enabled params")
		}
		chk := check.NewStrict(func() int64 { return int64(now) })
		tr.ForEach(func(a *Arbitrator) { a.AttachCheck(chk) })
		const prune = int8(2)

		// live remembers the exact path prefix each flow registered on,
		// so releases retrace it — the invariant the real system keeps.
		live := make(map[pkt.FlowID][]stop)
		for i, op := range data[3:] {
			flow := pkt.FlowID(op%23 + 1)
			a := int(op) % racks
			b := (int(op>>3) + i) % racks
			switch op >> 6 {
			case 0, 1: // refresh climb with early pruning
				steps := tr.ClimbPath(nil, flow, a, b, op&1 == 0)
				if len(steps) > tr.MaxDepth() {
					t.Fatalf("op %d: path %d steps exceeds MaxDepth %d",
						i, len(steps), tr.MaxDepth())
				}
				for j := 1; j < len(steps); j++ {
					if steps[j].depth < steps[j-1].depth {
						t.Fatalf("op %d: depth decreased along the climb", i)
					}
				}
				if len(live[flow]) > 0 {
					// A real refresh reuses the registered path; a new
					// (a,b) pair would leak the old registrations.
					steps = live[flow]
				}
				demand := netem.BitRate(1+int(op)%16) * 500 * netem.Mbps
				reached := steps[:0:0]
				for _, st := range steps {
					if st.arb.Down() {
						break // refresh lost at a crashed hop
					}
					d := st.arb.Update(flow, int64(op)*100, demand)
					reached = append(reached, st)
					if d.Queue < 0 || int(d.Queue) >= testQueues {
						t.Fatalf("op %d: queue %d outside [0,%d)", i, d.Queue, testQueues)
					}
					if d.Rref < 0 {
						t.Fatalf("op %d: negative Rref %v", i, d.Rref)
					}
					if d.Queue == 0 && d.Rref > st.arb.Capacity() {
						t.Fatalf("op %d: top-queue Rref %v exceeds capacity %v",
							i, d.Rref, st.arb.Capacity())
					}
					if d.Queue >= prune {
						break // pruned: nothing above sees the flow
					}
				}
				if len(reached) > 0 {
					live[flow] = reached
				}
			case 2: // release along the registered path
				for _, st := range live[flow] {
					st.arb.Remove(flow)
					if _, ok := lookup(st.arb, flow); ok {
						t.Fatalf("op %d: flow survived its release", i)
					}
				}
				delete(live, flow)
			case 3: // clock jump, rebalance, or crash/restore
				switch op & 3 {
				case 0:
					now = now.Add(sim.Duration(int(op>>2)) * 100 * sim.Microsecond)
				case 1:
					tr.RefreshShares(prune, nil)
				case 2:
					lv := int(op>>2) % len(tr.levels)
					tr.levels[lv][int(op>>4)%len(tr.levels[lv])].Crash()
				case 3:
					lv := int(op>>2) % len(tr.levels)
					tr.levels[lv][int(op>>4)%len(tr.levels[lv])].Restore()
				}
			}
		}
		// Final sweep under the strict checker: recompute every book at
		// the current clock and hold the crash invariant — a down
		// arbitrator carries no flow state, so no rate can ever be
		// granted through it.
		tr.ForEach(func(arb *Arbitrator) {
			if arb.Down() {
				if arb.Flows() != 0 {
					t.Fatalf("crashed arbitrator %d holds %d flows", arb.LinkID, arb.Flows())
				}
				return
			}
			arb.AggregateTopDemand(int8(testQueues - 1))
		})
	})
}
