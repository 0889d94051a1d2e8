package arbitration

import (
	"testing"

	"pase/internal/check"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
)

// FuzzClimb drives a whole System through arbitrary refreshes,
// releases, crashes, restores and clock advances, in each of the three
// arms (flat, deep hierarchy, central) on a 4-rack three-tier fabric
// and on the 8-rack ctrlscale fabric. LocalOnly, Delegation and
// EarlyPruning start as the first byte says, and a toggle operation
// releases every live flow, then flips one of them: a run never changes
// its parameters under a live flow. The strict checker on every
// arbitrator panics on an infeasible allocation; the target adds the
// properties of the one stop list:
//
//  1. once every flow has released, every arbitrator is empty;
//  2. no release charges more hops than its flow's deepest climb;
//  3. a pruned climb saves 2 × (reachable depth − reached depth)
//     messages, and an unpruned one saves none.
//
// The reachable depth is worked out from the path, not read off the
// stop list, so a stop list that climbs too far or too short fails too.
func FuzzClimb(f *testing.F) {
	f.Add([]byte("\x00flat-climb\x01\x41\x81\xc3\x02\x42"))
	f.Add([]byte("\x03tree\x10\x20\x30\x80\xc1\xc2\x50\xff"))
	f.Add([]byte("\x04central\x11\x22\x33\xa0\xc0\xc4\x91"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		hdr := data[0]
		cfg := topology.Baseline(prioQ)
		cfg.HostsPerRack = 2
		hier := HierarchyParams{FanOut: 2}
		if hdr&1 != 0 { // ctrlscale-8: two-host racks, one eight-rack agg group
			cfg.Racks, cfg.RacksPerAgg = 8, 8
			hier = HierarchyParams{FanOut: 4, TopShards: 2}
		}
		p := DefaultParams()
		switch (hdr >> 1) % 3 {
		case 1:
			p.Hierarchy = hier
		case 2:
			p.Central = true
		}
		p.LocalOnly = hdr&0x08 != 0
		p.Delegation = hdr&0x10 == 0
		p.EarlyPruning = hdr&0x20 == 0

		eng := sim.NewEngine()
		net := topology.Build(eng, cfg)
		sys := NewSystem(net, p)
		sys.AttachCheck(check.NewStrict(func() int64 { return int64(eng.Now()) }))
		hosts := len(net.Hosts)

		const slots = 12
		var live [slots]*Client
		var deepest [slots]int // the deepest climb of each live flow, both halves summed
		next := pkt.FlowID(1)

		release := func(k int) {
			c := live[k]
			if c == nil {
				return
			}
			before := sys.Stats.Messages
			c.Release()
			if sent := int(sys.Stats.Messages - before); sent > deepest[k] {
				t.Fatalf("flow %d: release charged %d hops, its deepest climb %d", c.flow, sent, deepest[k])
			}
			live[k], deepest[k] = nil, 0
		}
		for i, op := range data[1:] {
			k := int(op) % slots
			switch op >> 6 {
			case 0, 1: // refresh, opening the flow first if the slot is free
				c := live[k]
				if c == nil {
					src := (int(op)*7 + i) % hosts
					dst := (src + 1 + (int(op>>2)+i)%(hosts-1)) % hosts
					c = sys.NewClient(next, pkt.NodeID(src), pkt.NodeID(dst))
					live[k] = c
					next++
				}
				key := int64(op)*1000 + int64(i)
				demand := netem.BitRate(1+int(op)%8) * 500 * netem.Mbps
				climbed := 0
				for _, srcSide := range [2]bool{true, false} {
					if sys.P.Central && !srcSide {
						break // one exchange covers both halves
					}
					full := reach(sys, c, srcSide)
					pruned, saved := sys.Stats.Pruned, sys.Stats.PruneSavedMsgs
					level := climbLevel(eng, sys, func() { c.exchange(key, demand, srcSide, !srcSide || sys.P.Central) })
					if level > full {
						t.Fatalf("flow %d: climbed to depth %d, past its reach %d", c.flow, level, full)
					}
					want := int64(0)
					if sys.Stats.Pruned != pruned {
						want = int64(2 * (full - level))
					}
					if got := sys.Stats.PruneSavedMsgs - saved; got != want {
						t.Fatalf("flow %d: pruning saved %d messages, want 2 × (%d − %d) = %d",
							c.flow, got, full, level, want)
					}
					climbed += full
				}
				deepest[k] = max(deepest[k], climbed)
			case 2:
				release(k)
			case 3:
				switch arg := int(op>>2) & 0xf; op & 3 {
				case 0, 1: // crash or restore one link's arbitrators, or all
					link := -1
					if arg != 0 {
						link = (arg * 37) % len(net.Links)
					}
					if op&3 == 0 {
						sys.Crash(link)
					} else {
						sys.Restore(link)
					}
				case 2: // deliver replies and run share refreshes
					if err := eng.RunUntil(eng.Now().Add(sim.Duration(arg+1) * 100 * sim.Microsecond)); err != nil {
						t.Fatal(err)
					}
				case 3:
					for k := range live {
						release(k)
					}
					switch arg % 3 {
					case 0:
						sys.P.LocalOnly = !sys.P.LocalOnly
					case 1:
						sys.P.Delegation = !sys.P.Delegation
					case 2:
						sys.P.EarlyPruning = !sys.P.EarlyPruning
					}
				}
			}
		}
		for k := range live {
			release(k)
		}
		sys.visit(-1, func(a *Arbitrator) {
			if n := a.Flows(); n != 0 {
				t.Fatalf("arbitrator %d holds %d flows after every flow released", a.LinkID, n)
			}
		})
	})
}

// reach is the depth one half's full climb ends at, worked out from
// the path: 0 at the access link, one per link above it, except that a
// delegated agg-core link is served from the ToR's slice at the ToR's
// depth; the deep hierarchy ends where its ClimbPath does, and the
// central arm always climbs the host's upward hop count to the
// controller.
func reach(sys *System, c *Client, srcSide bool) int {
	links, a, b := c.upPath, c.src, c.dst
	if !srcSide {
		links, a, b = c.dstClimb, c.dst, c.src
	}
	last := links[len(links)-1]
	switch tr := sys.treeFor(srcSide); {
	case sys.P.Central:
		return len(c.upPath)
	case sys.P.LocalOnly || len(links) == 1:
		return 0
	case tr != nil:
		steps := tr.ClimbPath(nil, c.flow, sys.net.RackOf(a), sys.net.RackOf(b), sys.P.Delegation)
		return steps[len(steps)-1].depth
	case sys.slices != nil && sys.P.Delegation && last.Level == topology.LevelAggCore:
		return len(links) - 2
	}
	return len(links) - 1
}
