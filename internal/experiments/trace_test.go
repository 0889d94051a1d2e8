package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pase/internal/faults"
	"pase/internal/sim"
	"pase/internal/trace"
)

// The flight recorder's contract is the same as the rest of the run
// machinery: traced runs produce byte-identical output at every shard
// count, parallelism and collector mode. These tests pin the exported
// Perfetto bytes — the strongest form of that equality — plus the
// trace-derived observability counters.

func tracedPoint() PointConfig {
	return PointConfig{
		Protocol: DCTCP,
		Scenario: LeftRight,
		Load:     0.7,
		Seed:     11,
		NumFlows: 150,
		Check:    true,
		Trace: TraceConfig{
			FlowLog:     true,
			QueueSample: 100 * sim.Microsecond,
			Spans:       true,
		},
	}
}

// perfettoBytes runs cfg and exports the recorded trace.
func perfettoBytes(t *testing.T, cfg PointConfig) ([]byte, PointResult) {
	t.Helper()
	r := RunPoint(cfg)
	if r.Violations != 0 {
		t.Fatalf("invariant checker reported %d violations:\n%v", r.Violations, r.CheckViolations)
	}
	if r.Trace == nil {
		t.Fatal("no trace recorded")
	}
	var buf bytes.Buffer
	if err := r.Trace.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r
}

// TestTracedShardedPerfettoIdentical is the tentpole pin: a traced run
// no longer falls back to serial, and the exported Perfetto JSON is
// byte-identical at shards 0 through 4, streamed or stored.
func TestTracedShardedPerfettoIdentical(t *testing.T) {
	cfg := tracedPoint()
	cfg.Obs = true
	want, serial := perfettoBytes(t, cfg)
	if n := serial.Obs.Counters["shard/fallback_serial"]; n != 0 {
		t.Fatalf("serial run counted %d fallbacks", n)
	}
	wantEvents, _ := flowEventsTSV(t, serial)
	for _, shards := range []int{1, 2, 3, 4} {
		for _, stream := range []bool{false, true} {
			c := cfg
			c.Shards = shards
			c.Stream = stream
			got, r := perfettoBytes(t, c)
			if r.Obs.Counters["shard/fallback_serial"] != 0 {
				t.Errorf("shards=%d stream=%v: traced run fell back to serial", shards, stream)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("shards=%d stream=%v: Perfetto bytes differ from serial (%d vs %d bytes)",
					shards, stream, len(got), len(want))
			}
			gotEvents, _ := flowEventsTSV(t, r)
			if gotEvents != wantEvents {
				t.Errorf("shards=%d stream=%v: flow-event TSV differs from serial", shards, stream)
			}
		}
	}
}

func flowEventsTSV(t *testing.T, r PointResult) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteFlowEvents(&buf, r.FlowEvents); err != nil {
		t.Fatal(err)
	}
	return buf.String(), len(r.FlowEvents)
}

// TestTracedChaosDeterminism: fault injection composes with tracing —
// a faulted, checked, sharded, streamed run traces identically to its
// serial twin, and the dropped control exchanges appear as spans.
func TestTracedChaosDeterminism(t *testing.T) {
	cfg := tracedPoint()
	cfg.Protocol = PASE // arbitration hierarchy + fault surface
	cfg.Faults = &faults.Plan{Seed: 5, Ctrl: []faults.CtrlFault{{Drop: 0.3}}}
	want, serial := perfettoBytes(t, cfg)
	if serial.Trace.Stats.CtrlTotal == 0 {
		t.Fatal("faulted PASE run recorded no control spans")
	}
	var dropped bool
	for _, c := range serial.Trace.Ctrl {
		if c.Outcome != 0 { // anything but CtrlOK
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("30% ctrl drop plan left no dropped-exchange spans")
	}
	// PASE cannot shard (fabric-synchronous control plane) but the
	// sharded entry point must still produce the identical trace.
	for _, shards := range []int{2, 4} {
		c := cfg
		c.Shards = shards
		if got, _ := perfettoBytes(t, c); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: faulted trace differs from serial", shards)
		}
	}
}

// TestPASETraceCtrlAndHistograms: a traced PASE run records the full
// control-plane story — wait spans, grant marks, per-level arbitration
// RTT histograms and the inflight-allocations gauge.
func TestPASETraceCtrlAndHistograms(t *testing.T) {
	cfg := tracedPoint()
	cfg.Protocol = PASE
	cfg.Obs = true
	_, r := perfettoBytes(t, cfg)
	if r.Trace.Stats.CtrlTotal == 0 {
		t.Fatal("no control spans recorded")
	}
	var waits, grants int
	for _, ft := range r.Trace.Flows {
		if ft.WaitCtrl() > 0 {
			waits++
		}
		for _, m := range ft.Marks {
			if m.Kind.String() == "grant" {
				grants++
			}
		}
	}
	if waits == 0 || grants == 0 {
		t.Fatalf("PASE trace: %d flows with wait spans, %d grant marks — lifecycle not recorded", waits, grants)
	}
	snap := r.Obs
	var rttObs int64
	for _, lvl := range []string{"arb/rtt/level0", "arb/rtt/level1", "arb/rtt/level2", "arb/rtt/level3"} {
		h, ok := snap.Histograms[lvl]
		if !ok {
			t.Fatalf("missing histogram %s (have %d histograms)", lvl, len(snap.Histograms))
		}
		rttObs += h.Count
	}
	if rttObs == 0 {
		t.Fatal("arbitration RTT histograms empty")
	}
	if _, ok := snap.Gauges["arb/inflight_allocs"]; !ok {
		t.Fatal("missing arb/inflight_allocs gauge")
	}
	for _, c := range []string{"trace/flows_started", "trace/flows_final", "trace/ctrl_spans"} {
		if snap.Counters[c] == 0 {
			t.Fatalf("counter %s = 0", c)
		}
	}
}

// TestTraceSamplingKeepsBudget: 1-in-N sampling bounds retention while
// stats keep the full population count, identically at every shard
// count.
func TestTraceSamplingKeepsBudget(t *testing.T) {
	cfg := tracedPoint()
	cfg.Trace.SampleN = 8
	want, serial := perfettoBytes(t, cfg)
	st := serial.Trace.Stats
	if st.FlowsSampledOut == 0 {
		t.Fatal("sampleN=8 kept every flow")
	}
	if st.FlowsStarted != st.FlowsFinal+st.FlowsSampledOut+st.FlowsUnfinished+st.FlowsEvicted {
		t.Fatalf("retention stats don't add up: %+v", st)
	}
	c := cfg
	c.Shards = 3
	if got, r := perfettoBytes(t, c); !bytes.Equal(got, want) {
		t.Error("sampled trace differs across shard counts")
	} else if r.Trace.Stats != st {
		t.Errorf("stats differ across shard counts: %+v vs %+v", r.Trace.Stats, st)
	}
}

// TestGoldenPerfettoTrace pins a small traced run's exported bytes to
// a golden file. Regenerate with PASE_UPDATE=1 go test ./internal/experiments
// -run TestGoldenPerfettoTrace and review the diff like any golden.
func TestGoldenPerfettoTrace(t *testing.T) {
	cfg := PointConfig{
		Protocol: DCTCP, Scenario: LeftRight, Load: 0.6, Seed: 1, NumFlows: 40,
		Trace: TraceConfig{Spans: true, QueueSample: 200 * sim.Microsecond},
	}
	got, _ := perfettoBytes(t, cfg)
	if !json.Valid(got) {
		t.Fatal("exported trace is not valid JSON")
	}
	checkGolden(t, "golden_trace.json", got)
}

// TestGoldenTraceTSV pins the flow-event and queue-sample TSVs of a
// small serial traced run, the way TestGoldenPerfettoTrace pins its
// Perfetto bytes. Regenerate with PASE_UPDATE=1.
func TestGoldenTraceTSV(t *testing.T) {
	r := RunPoint(PointConfig{
		Protocol: DCTCP, Scenario: LeftRight, Load: 0.6, Seed: 1, NumFlows: 40,
		Trace: TraceConfig{FlowLog: true, QueueSample: 200 * sim.Microsecond},
	})
	var events, samples bytes.Buffer
	if err := trace.WriteFlowEvents(&events, r.FlowEvents); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteQueueSamples(&samples, r.QueueSamples); err != nil {
		t.Fatal(err)
	}
	if len(r.FlowEvents) == 0 || len(r.QueueSamples) == 0 {
		t.Fatalf("traced run recorded %d flow events, %d queue samples", len(r.FlowEvents), len(r.QueueSamples))
	}
	checkGolden(t, "flow_events.tsv", events.Bytes())
	checkGolden(t, "queue_samples.tsv", samples.Bytes())
}

// TestFlowLogSpillMatchesBuffered: a serial streaming run that spills
// its flow events to TraceConfig.FlowLogWriter writes exactly the bytes
// the buffered run's flow events export to — the TSV twin of the trace
// package's TestSpillMatchesBuffered.
func TestFlowLogSpillMatchesBuffered(t *testing.T) {
	cfg := tracedPoint()
	cfg.Stream = true
	var want bytes.Buffer
	if err := trace.WriteFlowEvents(&want, RunPoint(cfg).FlowEvents); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	cfg.Trace.FlowLogWriter = &got
	if r := RunPoint(cfg); len(r.FlowEvents) != 0 {
		t.Fatalf("spilling run retained %d flow events", len(r.FlowEvents))
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("spilled flow-event TSV differs from buffered (%d vs %d bytes)", got.Len(), want.Len())
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under PASE_UPDATE=1; review the diff like any golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("PASE_UPDATE") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with PASE_UPDATE=1)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes diverged from %s (%d vs %d bytes); regenerate with PASE_UPDATE=1 and review",
			golden, len(got), len(want))
	}
}
