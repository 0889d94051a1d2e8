package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"pase/internal/faults"
	"pase/internal/sim"
)

// The sharded engine's contract is byte-identical results: the same
// per-flow records, queue totals and metrics as the serial engine, at
// every shard count, under every GOMAXPROCS. These tests pin that
// equality across transports, topologies, streaming, and faults.

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
	r := RunPoint(cfg)
	if r.Violations != 0 {
		t.Fatalf("shards=%d: invariant checker reported %d violations:\n%v",
			shards, r.Violations, r.CheckViolations)
	}
	if r.Summary.Completed == 0 {
		t.Fatalf("shards=%d: no flows completed", shards)
	}
	return r
}

// TestShardedDigestEquality is the tentpole pin: every shardable
// transport, on both a tree and a leaf-spine fabric, produces the exact
// serial digest at 2, 3 and 4 shards.
func TestShardedDigestEquality(t *testing.T) {
	for _, p := range []Protocol{DCTCP, D2TCP, L2DCT, PFabric, ExpressPass} {
		for _, s := range []Scenario{LeftRight, LeafSpine} {
			p, s := p, s
			t.Run(string(p)+"/"+string(s), func(t *testing.T) {
				t.Parallel()
				cfg := shardPoint(p, s)
				want := digestResult(runShards(t, cfg, 0))
				for _, shards := range []int{1, 2, 3, 4} {
					if got := digestResult(runShards(t, cfg, shards)); got != want {
						t.Errorf("shards=%d: digest %#x, want serial %#x", shards, got, want)
					}
				}
			})
		}
	}
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
	// A run that shards, or never asked to, reports no fallback.
	for _, shards := range []int{0, 4} {
		if got := runShards(t, shardPoint(DCTCP, LeftRight), shards).ShardFallback; got != "" {
			t.Errorf("DCTCP left-right shards=%d: ShardFallback = %q, want none", shards, got)
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

// TestShardedFig9aTSV pins the figure pipeline end to end under
// sharding: the TSV must be the exact golden bytes (PASE falls back to
// serial inside the grid; L2DCT and DCTCP run sharded).
func TestShardedFig9aTSV(t *testing.T) {
	o := Opts{NumFlows: 100, Seed: 1, Seeds: 2, Loads: []float64{0.5}, Check: true, Shards: 3}
	fig, ok := Lookup("9a")
	if !ok {
		t.Fatal("figure 9a not registered")
	}
	res := fig.Run(o)
	if res.Violations != 0 {
		t.Fatalf("invariant checker reported %d violations", res.Violations)
	}
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenFig9aTSV {
		t.Errorf("sharded figure 9a TSV diverged from golden:\ngot:\n%s\nwant:\n%s", got, goldenFig9aTSV)
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

// TestShardedFaultsDigest: fault injection draws from per-link RNG
// streams, so a faulted run must shard byte-identically too.
func TestShardedFaultsDigest(t *testing.T) {
	cfg := shardPoint(DCTCP, LeftRight)
	cfg.Faults = &faults.Plan{
		Seed: 3,
		Links: []faults.LinkFault{
			{Link: -1, At: 2 * sim.Millisecond, For: 300 * sim.Microsecond, Every: 5 * sim.Millisecond},
		},
		Loss: []faults.LossFault{
			{Link: -1, Class: faults.Any, Rate: 0.02},
			{Link: -1, Class: faults.DataClass, Corrupt: 0.01},
		},
	}
	want := digestResult(runShards(t, cfg, 0))
	for _, shards := range []int{2, 4} {
		if got := digestResult(runShards(t, cfg, shards)); got != want {
			t.Errorf("shards=%d: faulted digest %#x, want serial %#x", shards, got, want)
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
		Faults: &faults.Plan{
			Seed: 3,
			Links: []faults.LinkFault{
				{Link: -1, At: 2 * sim.Millisecond, For: 300 * sim.Microsecond, Every: 5 * sim.Millisecond},
			},
			Loss: []faults.LossFault{
				{Link: -1, Class: faults.Any, Rate: 0.02},
				{Link: -1, Class: faults.DataClass, Corrupt: 0.01},
			},
		},
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

// TestShardedGOMAXPROCSDeterminism: the digest must not depend on how
// the shard goroutines are scheduled. GOMAXPROCS=1 forces full
// interleaving serialization; the digest must still match the
// many-core run and the serial engine.
func TestShardedGOMAXPROCSDeterminism(t *testing.T) {
	cfg := shardPoint(DCTCP, LeafSpine)
	serial := digestResult(runShards(t, cfg, 0))
	wide := digestResult(runShards(t, cfg, 4))
	prev := runtime.GOMAXPROCS(1)
	narrow := digestResult(runShards(t, cfg, 4))
	runtime.GOMAXPROCS(prev)
	if wide != serial {
		t.Errorf("sharded digest %#x, want serial %#x", wide, serial)
	}
	if narrow != wide {
		t.Errorf("GOMAXPROCS=1 digest %#x, want %#x", narrow, wide)
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
