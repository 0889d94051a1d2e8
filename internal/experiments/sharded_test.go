package experiments

import (
	"io"
	"testing"
)

// The sharded engine's contract is byte-identical results at every
// shard count, under every GOMAXPROCS: the shards=N twins of the pin
// registry (pins_test.go) hold it. These tests check the fallback rule,
// the streaming summary and the shard/* counters.

func shardPoint(p Protocol, s Scenario) PointConfig {
	return PointConfig{
		Protocol: p,
		Scenario: s,
		Load:     0.8,
		Seed:     7,
		NumFlows: 120,
		Check:    true,
	}
}

func runShards(t *testing.T, cfg PointConfig, shards int) PointResult {
	t.Helper()
	cfg.Shards = shards
	return runChecked(t, cfg)
}

// TestShardedFallback: a 4-shard request on a run that cannot shard —
// a fabric-synchronous control plane (PASE, PDQ), a trace track, a
// fault plan, or a fabric with one partition atom —
// takes the serial path: it names the reason in the result whether or
// not Obs is on, produces the serial digest, and counts the fallback
// when Obs is on.
func TestShardedFallback(t *testing.T) {
	traced := shardPoint(DCTCP, LeftRight)
	traced.Trace = TraceConfig{FlowLogWriter: io.Discard}
	faulted := shardPoint(DCTCP, LeftRight)
	faulted.Faults = flapLossPlan()
	for _, c := range []struct {
		why string
		cfg PointConfig
	}{
		{"pase", shardPoint(PASE, LeftRight)},
		{"pdq", shardPoint(PDQ, LeftRight)},
		{"trace", traced},
		{"faults", faulted},
		{"single_atom", shardPoint(DCTCP, IntraRack)},
	} {
		t.Run(c.why, func(t *testing.T) {
			cfg := c.cfg
			if got := runShards(t, cfg, 4).ShardFallback; got != c.why {
				t.Errorf("shards=4, Obs off: ShardFallback = %q, want %q", got, c.why)
			}
			cfg.Obs = true
			want := digestResult(runShards(t, cfg, 0))
			r := runShards(t, cfg, 4)
			if got := digestResult(r); got != want {
				t.Errorf("shards=4: digest %#x, want serial %#x", got, want)
			}
			for _, name := range []string{"shard/fallback_serial", "shard/fallback_serial/" + c.why} {
				if got := r.Obs.Counters[name]; got != 1 {
					t.Errorf("%s = %d, want 1", name, got)
				}
			}
		})
	}
	// A run that shards, or never asked to, reports no fallback and
	// the serial digest. Reroute without a fault plan attaches no
	// control loop, so a rerouted leaf-spine run ("route") shards too,
	// as does the same config on a tree fabric.
	streamed := shardPoint(DCTCP, LeftRight)
	streamed.Stream = true
	treeRoute := shardPoint(DCTCP, LeftRight)
	treeRoute.Reroute = true
	routed := shardPoint(DCTCP, TEFailover)
	routed.Reroute = true
	for _, c := range []struct {
		name string
		cfg  PointConfig
	}{
		{"sharded", shardPoint(DCTCP, LeftRight)},
		{"stream", streamed},
		{"tree_route", treeRoute},
		{"route", routed},
	} {
		t.Run(c.name, func(t *testing.T) {
			var digests [2]uint64
			for i, shards := range []int{0, 4} {
				r := runShards(t, c.cfg, shards)
				if r.ShardFallback != "" {
					t.Errorf("shards=%d: ShardFallback = %q, want none", shards, r.ShardFallback)
				}
				digests[i] = digestResult(r)
			}
			if digests[0] != digests[1] {
				t.Errorf("shards=4 digest %#x, want serial %#x", digests[1], digests[0])
			}
		})
	}
}

// TestShardedSinkEquality: with either sink, stored or streamed, a
// sharded run's exact metrics (counts, AFCT, retransmissions, queue
// totals and the simulated end time) must match the serial run's.
func TestShardedSinkEquality(t *testing.T) {
	for _, stream := range []bool{false, true} {
		cfg := shardPoint(DCTCP, LeafSpine)
		cfg.NumFlows = 400
		cfg.Stream = stream
		cfg.Obs = true
		want := runShards(t, cfg, 0)
		for _, shards := range []int{2, 4} {
			got := runShards(t, cfg, shards)
			a, b := want.Summary, got.Summary
			if a.Flows != b.Flows || a.Completed != b.Completed ||
				a.AFCT != b.AFCT || a.MaxFCT != b.MaxFCT ||
				a.Retransmits != b.Retransmits || a.Timeouts != b.Timeouts {
				t.Errorf("stream=%v shards=%d: summary diverged:\nserial:  %+v\nsharded: %+v",
					stream, shards, a, b)
			}
			if want.Queues != got.Queues {
				t.Errorf("stream=%v shards=%d: queue totals diverged:\nserial:  %+v\nsharded: %+v",
					stream, shards, want.Queues, got.Queues)
			}
			const elapsed = "sim/elapsed_ns"
			if w, g := want.Obs.Counters[elapsed], got.Obs.Counters[elapsed]; w != g {
				t.Errorf("stream=%v shards=%d: %s = %d, want serial %d", stream, shards, elapsed, g, w)
			}
		}
	}
}

// TestShardedChaosStream soaks a sharded, streamed request under
// fault chaos and the invariant checker: the fault plan keeps the run
// on the serial engine, links flap, packets drop and corrupt, and every
// flow must still complete with zero violations.
func TestShardedChaosStream(t *testing.T) {
	cfg := PointConfig{
		Protocol: DCTCP, Scenario: LeafSpine, Load: 0.6,
		Seed: 11, NumFlows: 300,
		Check: true, Obs: true, Stream: true, Shards: 4,
		Faults: flapLossPlan(),
	}
	r := RunPoint(cfg)
	if r.Violations != 0 {
		t.Fatalf("invariant checker reported %d violations:\n%v", r.Violations, r.CheckViolations)
	}
	if r.ShardFallback != "faults" {
		t.Errorf("ShardFallback = %q, want \"faults\"", r.ShardFallback)
	}
	if r.Summary.Completed != r.Summary.Flows {
		t.Fatalf("%d of %d flows completed under chaos", r.Summary.Completed, r.Summary.Flows)
	}
	for _, c := range []string{"faults/link_down", "faults/drop_data"} {
		if r.Obs.Counters[c] == 0 {
			t.Errorf("counter %s = 0, want > 0", c)
		}
	}
}

// TestShardedObsCounters checks the shard/* observability contract on a
// real run: windows, handoffs, batch sizes and stall time all land in
// the merged snapshot.
func TestShardedObsCounters(t *testing.T) {
	cfg := shardPoint(DCTCP, LeafSpine)
	cfg.Obs = true
	r := runShards(t, cfg, 4)
	c := r.Obs.Counters
	for _, name := range []string{"shard/windows", "shard/handoffs", "shard/tail_events"} {
		if c[name] == 0 {
			t.Errorf("counter %s = 0, want > 0", name)
		}
	}
	if c["shard/shards"] != 4 {
		t.Errorf("shard/shards = %d, want 4", c["shard/shards"])
	}
	if c["shard/atoms"] == 0 {
		t.Error("shard/atoms = 0, want > 0")
	}
	if _, ok := r.Obs.Histograms["shard/handoff_batch"]; !ok {
		t.Error("histogram shard/handoff_batch missing from snapshot")
	}
}
