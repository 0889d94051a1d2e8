package pase_test

import (
	"runtime"
	"testing"

	"pase"
	"pase/internal/check"
)

// TestAllocGate is the allocation-drift gate (`make alloc-gate`): five
// of the benchmark's reference configurations at a few hundred flows,
// each held to a committed budget of bytes and objects allocated per
// flow. Allocation counts repeat to better than 1 part in 10^4 on one
// toolchain, so unlike a timing comparison this can be a hard test.
// Budgets sit about 25% above the values measured when the packet path
// and then PASE's control path became allocation-free and senders
// stopped materialising per-segment state they never touch; a
// per-packet, per-event or per-refresh allocation creeping
// back in overshoots them several times over (the closure-per-hop,
// literal-per-packet path read 68–75 KB and 1620–2290 objects per flow
// on these configurations; with a closure per arbitration reply, a
// reflection-based sort per epoch and an entry per flow per link the
// two PASE rows read 11.2 KB / 97.5 objects and 43.3 KB / 368). The
// sharded row holds rank mode to the same standard: with a garbage rank
// node per scheduling event it read 50.8 KB and 681 objects per flow.
// ctrlscale-512's per-flow figures are mostly the 512-rack fabric's
// set-up spread over 400 flows.
func TestAllocGate(t *testing.T) {
	if check.Forced() {
		t.Skip("the forced invariant checker allocates on its own; budgets are for unchecked runs")
	}
	for _, g := range []struct {
		name           string
		cfg            pase.SimConfig
		bytes, objects float64 // per-flow budgets
	}{
		{"fig9a-dctcp", pase.SimConfig{Protocol: pase.ProtocolDCTCP, Scenario: pase.ScenarioLeftRight, Load: 0.8, NumFlows: 600}, 3550, 22},
		{"fig9a-pase", pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: pase.ScenarioLeftRight, Load: 0.8, NumFlows: 600}, 4650, 30},
		{"incast256-expresspass", pase.SimConfig{Protocol: pase.ProtocolExpressPass, Scenario: pase.ScenarioIncast256, Load: 0.7, Stream: true, NumFlows: 400}, 3800, 38},
		{"leafspine-stream-shards2", pase.SimConfig{Protocol: pase.ProtocolDCTCP, Scenario: pase.ScenarioLeafSpineWide, Load: 0.6, Stream: true, Shards: 2, NumFlows: 600}, 4770, 20},
		{"ctrlscale512-pase", pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: "ctrlscale-512", Load: 0.6, NumFlows: 400}, 36300, 190},
	} {
		t.Run(g.name, func(t *testing.T) {
			g.cfg.Seed = 1
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rep, err := pase.Simulate(g.cfg)
			runtime.ReadMemStats(&after)
			if err != nil || rep.Completed != g.cfg.NumFlows {
				t.Fatalf("run failed: completed %d/%d, err %v", rep.Completed, g.cfg.NumFlows, err)
			}
			if rep.ShardFallback != "" {
				t.Fatalf("a %d-shard request ran on the serial engine (%s): the budget would gate the wrong path", g.cfg.Shards, rep.ShardFallback)
			}
			flows := float64(g.cfg.NumFlows)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / flows
			objects := float64(after.Mallocs-before.Mallocs) / flows
			t.Logf("%.0f B and %.1f objects allocated per flow (budget %.0f B, %.0f objects)", bytes, objects, g.bytes, g.objects)
			if bytes > g.bytes || objects > g.objects {
				t.Errorf("allocation per flow over budget: %.0f B (budget %.0f), %.1f objects (budget %.0f)",
					bytes, g.bytes, objects, g.objects)
			}
		})
	}
}
