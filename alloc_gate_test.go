package pase_test

import (
	"runtime"
	"testing"

	"pase"
	"pase/internal/check"
)

// TestAllocGate is the allocation-drift gate (`make alloc-gate`): the
// benchmark's seven reference configurations and PDQ at a few hundred
// flows, each held to a committed budget of bytes and objects allocated
// per flow. Allocation counts repeat to better than 1 part in 10^4 on one
// toolchain, so unlike a timing comparison this can be a hard test.
// Budgets sit about 25% above the values measured once the packet
// path, PASE's control path, rank mode and then flow turnover itself
// (pooled senders, receivers and controls, one arrival chain, the
// pFabric queue without its map) stopped allocating, and the fabric's
// set-up came down to what its links cost. What is left is still mostly
// that set-up spread over a few hundred flows — one queue, port and
// arbitrator per directed link and a stack per host, three quarters of
// ctrlscale-512's row; TestSetupScalesWithLinks holds its growth — so
// anything per packet, per event, per refresh or per flow creeping back
// overshoots, and so does a per-switch table over all hosts (that row
// read 28.0 KB / 145 objects with one): the closure-per-hop,
// literal-per-packet path read 68–75 KB and 1620–2290 objects per flow
// on these configurations; a closure per arbitration reply, a
// reflection-based sort per epoch and an entry per flow per link put
// the two PASE rows at 11.2 KB / 97.5 objects and 43.3 KB / 368; a
// garbage rank node per scheduling event put the sharded row at
// 50.8 KB / 681; and a sender, receiver, control, arrival closure and
// one-bool-at-a-time arrival map per flow read 2.8 KB / 17.4 on
// fig9a-dctcp and 4.1 KB / 21.9 on fig9a-pfabric; and PDQ's own
// per-link allocator (a map, a fresh slice and a reflective sort per
// sync) read 56.3 KB / 517 on fig9a-pdq, and three closures per sync on
// PASE's arbitrator still 4.8 KB / 91.4; and a PASE control, client,
// cloned down path and update closure per flow, with a sort scratch per
// arbitrator, read 2.3 KB / 11.8 on fig9a-pase and 13.0 KB / 77.3 on
// ctrlscale512-pase; and an ExpressPass credit state and jitter stream
// per flow read 2.3 KB / 16.5 on incast256-expresspass, and a PDQ
// control, path and entry per flow per link 1.9 KB / 14.9 on fig9a-pdq.
func TestAllocGate(t *testing.T) {
	if check.Forced() {
		t.Skip("the forced invariant checker allocates on its own; budgets are for unchecked runs")
	}
	for _, g := range []struct {
		name           string
		cfg            pase.SimConfig
		bytes, objects float64 // per-flow budgets
	}{
		{"fig9a-dctcp", pase.SimConfig{Protocol: pase.ProtocolDCTCP, Scenario: pase.ScenarioLeftRight, Load: 0.8, NumFlows: 600}, 2050, 11.6},
		{"fig9a-pase", pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: pase.ScenarioLeftRight, Load: 0.8, NumFlows: 600}, 2540, 9.1},
		{"incast256-expresspass", pase.SimConfig{Protocol: pase.ProtocolExpressPass, Scenario: pase.ScenarioIncast256, Load: 0.7, Stream: true, NumFlows: 400}, 2700, 18.4},
		{"leafspine-stream-shards2", pase.SimConfig{Protocol: pase.ProtocolDCTCP, Scenario: pase.ScenarioLeafSpineWide, Load: 0.6, Stream: true, Shards: 2, NumFlows: 600}, 4430, 14.5},
		{"ctrlscale512-pase", pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: "ctrlscale-512", Load: 0.6, NumFlows: 400}, 15500, 85.5},
		{"leafspine-stream", pase.SimConfig{Protocol: pase.ProtocolDCTCP, Scenario: pase.ScenarioLeafSpineWide, Load: 0.6, Stream: true, NumFlows: 600}, 3650, 10.9},
		{"fig9a-pfabric", pase.SimConfig{Protocol: pase.ProtocolPFabric, Scenario: pase.ScenarioLeftRight, Load: 0.8, NumFlows: 600}, 3240, 10.6},
		{"fig9a-pdq", pase.SimConfig{Protocol: pase.ProtocolPDQ, Scenario: pase.ScenarioLeftRight, Load: 0.8, NumFlows: 600}, 1875, 8.2},
	} {
		t.Run(g.name, func(t *testing.T) {
			bytes, objects := allocsOf(t, g.cfg)
			flows := float64(g.cfg.NumFlows)
			bytes, objects = bytes/flows, objects/flows
			t.Logf("%.0f B and %.1f objects allocated per flow (budget %.0f B, %.0f objects)", bytes, objects, g.bytes, g.objects)
			if bytes > g.bytes || objects > g.objects {
				t.Errorf("allocation per flow over budget: %.0f B (budget %.0f), %.1f objects (budget %.0f)",
					bytes, g.bytes, objects, g.objects)
			}
		})
	}
}

// allocsOf runs cfg to completion at seed 1 and returns the bytes and
// objects the run allocated.
func allocsOf(t *testing.T, cfg pase.SimConfig) (bytes, objects float64) {
	t.Helper()
	cfg.Seed = 1
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := pase.Simulate(cfg)
	runtime.ReadMemStats(&after)
	if err != nil || rep.Completed != cfg.NumFlows {
		t.Fatalf("run failed: completed %d/%d, err %v", rep.Completed, cfg.NumFlows, err)
	}
	if rep.ShardFallback != "" {
		t.Fatalf("a %d-shard request ran on the serial engine (%s): the budget would gate the wrong path", cfg.Shards, rep.ShardFallback)
	}
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
}

// TestSetupScalesWithLinks holds set-up linear in the fabric's links
// (`make alloc-gate`): a one-flow run is all set-up, and four times the
// racks — four times the links — may cost at most 4.4× the bytes and
// objects. Anything per switch × host (a next-hop table per switch read
// 11.2× here) or per host × host fails it.
func TestSetupScalesWithLinks(t *testing.T) {
	if check.Forced() {
		t.Skip("the forced invariant checker allocates on its own; the ratio is for unchecked runs")
	}
	cfg := pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: "ctrlscale-512", Load: 0.6, NumFlows: 1}
	b512, o512 := allocsOf(t, cfg)
	cfg.Scenario = "ctrlscale-2048"
	b2048, o2048 := allocsOf(t, cfg)
	t.Logf("ctrlscale-512: %.0f B, %.0f objects; ctrlscale-2048: %.0f B (%.2fx), %.0f objects (%.2fx)",
		b512, o512, b2048, b2048/b512, o2048, o2048/o512)
	if b2048 > 4.4*b512 || o2048 > 4.4*o512 {
		t.Errorf("set-up grows faster than the fabric's links: 4x the racks cost %.2fx the bytes and %.2fx the objects (limit 4.4x)",
			b2048/b512, o2048/o512)
	}
}
