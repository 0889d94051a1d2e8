package experiments

import "testing"

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

// TestShardedFallback: PASE and PDQ cannot shard (fabric-synchronous
// control planes); a Shards request must take the serial path, produce
// the serial digest, name the reason in the result whether or not Obs
// is on, and count the fallback when it is.
func TestShardedFallback(t *testing.T) {
	for p, why := range map[Protocol]string{PASE: "pase", PDQ: "pdq"} {
		cfg := shardPoint(p, LeftRight)
		if got := runShards(t, cfg, 4).ShardFallback; got != why {
			t.Errorf("%s shards=4, Obs off: ShardFallback = %q, want %q", p, got, why)
		}
		cfg.Obs = true
		want := digestResult(runShards(t, cfg, 0))
		r := runShards(t, cfg, 4)
		if got := digestResult(r); got != want {
			t.Errorf("%s shards=4: digest %#x, want serial %#x", p, got, want)
		}
		if r.Obs.Counters["shard/fallback_serial"] != 1 {
			t.Errorf("%s: shard/fallback_serial = %d, want 1", p,
				r.Obs.Counters["shard/fallback_serial"])
		}
	}
	// Single-atom topologies have nothing to cut.
	cfg := shardPoint(DCTCP, IntraRack)
	if got := runShards(t, cfg, 4).ShardFallback; got != "single_atom" {
		t.Errorf("intra-rack shards=4, Obs off: ShardFallback = %q, want \"single_atom\"", got)
	}
	// A run that shards, or never asked to, reports no fallback; a
	// traced run shards too, stored or streamed.
	streamed := tracedPoint()
	streamed.Stream = true
	for _, c := range []PointConfig{shardPoint(DCTCP, LeftRight), tracedPoint(), streamed} {
		for _, shards := range []int{0, 4} {
			if got := runShards(t, c, shards).ShardFallback; got != "" {
				t.Errorf("%s %s trace=%v stream=%v shards=%d: ShardFallback = %q, want none",
					c.Protocol, c.Scenario, c.Trace.Enabled(), c.Stream, shards, got)
			}
		}
	}
	cfg.Obs = true
	want := digestResult(runShards(t, cfg, 0))
	r := runShards(t, cfg, 4)
	if got := digestResult(r); got != want {
		t.Errorf("intra-rack shards=4: digest %#x, want serial %#x", got, want)
	}
	if r.Obs.Counters["shard/fallback_serial/single_atom"] != 1 {
		t.Error("intra-rack: missing shard/fallback_serial/single_atom counter")
	}
}

// TestShardedStreamEquality: the streaming path's exact metrics
// (counts, AFCT, retransmissions, queue totals) must match between a
// serial streaming run and a sharded streaming run.
func TestShardedStreamEquality(t *testing.T) {
	cfg := shardPoint(DCTCP, LeafSpine)
	cfg.NumFlows = 400
	cfg.Stream = true
	want := runShards(t, cfg, 0)
	for _, shards := range []int{2, 4} {
		got := runShards(t, cfg, shards)
		a, b := want.Summary, got.Summary
		if a.Flows != b.Flows || a.Completed != b.Completed ||
			a.AFCT != b.AFCT || a.MaxFCT != b.MaxFCT ||
			a.Retx != b.Retx || a.Timeouts != b.Timeouts {
			t.Errorf("shards=%d: streaming summary diverged:\nserial:  %+v\nsharded: %+v",
				shards, a, b)
		}
		if want.Queues != got.Queues {
			t.Errorf("shards=%d: queue totals diverged:\nserial:  %+v\nsharded: %+v",
				shards, want.Queues, got.Queues)
		}
	}
}

// TestShardedChaosStream soaks the full composition — sharding ×
// streaming × fault chaos × invariant checker. Links flap, packets
// drop and corrupt, and every flow must still complete with zero
// violations.
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
	if r.Summary.Completed != r.Summary.Flows {
		t.Fatalf("%d of %d flows completed under chaos", r.Summary.Completed, r.Summary.Flows)
	}
	for _, c := range []string{"faults/link_down", "faults/drop_data", "shard/windows", "shard/handoffs"} {
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
