package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/trace"
)

// testMeta is the run description every recorder here carries.
var testMeta = trace.Meta{Proto: "PASE", Scenario: "test", NICBps: 1e9}

// driveFlows runs n flows through a recorder built from cfg on a real
// engine clock: flow i arrives at i µs and completes 10 µs later, with
// an epoch transition in between. flag(i) flows get a retx mark.
func driveFlows(t *testing.T, cfg trace.RecorderConfig, n int, flag func(int) bool) *trace.Recorder {
	t.Helper()
	eng := sim.NewEngine()
	s := trace.NewRecorder(eng, cfg)
	s.SetMeta(testMeta)
	for i := 0; i < n; i++ {
		i := i
		f := pkt.FlowID(i + 1)
		e := trace.FlowEvent{Flow: f, Src: pkt.NodeID(i), Dst: pkt.NodeID(i + 1), Size: 1000}
		eng.Schedule(sim.Duration(i)*sim.Microsecond, func() {
			s.FlowArrive(e, 0, false)
		})
		eng.Schedule(sim.Duration(i)*sim.Microsecond+5*sim.Microsecond, func() {
			s.Epoch(f, 1)
			if flag != nil && flag(i) {
				s.Mark(f, trace.MarkRetx, 42)
			}
		})
		eng.Schedule(sim.Duration(i)*sim.Microsecond+10*sim.Microsecond, func() {
			s.FlowEnd(e, false)
		})
	}
	if err := eng.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRecorderSamplingDeterministic(t *testing.T) {
	// The sample draw is a pure function of (seed, flow): two recorders
	// with the same seed keep the same flows, a different seed keeps a
	// different set, and flagged flows survive regardless of the draw.
	const n, sampleN = 400, 4
	take := func(seed uint64, flag func(int) bool) *trace.RunTrace {
		return driveFlows(t, trace.RecorderConfig{Spans: true, SampleN: sampleN, Seed: seed}, n, flag).Take()
	}
	a, b := take(7, nil), take(7, nil)
	if a.Digest() != b.Digest() {
		t.Fatal("same seed produced different traces")
	}
	if len(a.Flows) == 0 || len(a.Flows) == n {
		t.Fatalf("sampleN=%d kept %d of %d flows", sampleN, len(a.Flows), n)
	}
	if c := take(8, nil); c.Digest() == a.Digest() {
		t.Fatal("different seed produced identical sample set")
	}
	if got := a.Stats.FlowsSampledOut + a.Stats.FlowsFinal; got != n {
		t.Fatalf("sampled-out %d + final %d != started %d",
			a.Stats.FlowsSampledOut, a.Stats.FlowsFinal, n)
	}

	flagged := take(7, func(i int) bool { return true })
	if len(flagged.Flows) != n {
		t.Fatalf("flagged flows dropped by sampling: kept %d of %d", len(flagged.Flows), n)
	}
	for _, ft := range flagged.Flows {
		if !ft.Flagged {
			t.Fatalf("flow %d not flagged after retx mark", ft.Flow)
		}
	}
}

func TestRecorderRingEviction(t *testing.T) {
	const n, cap = 100, 16
	rt := driveFlows(t, trace.RecorderConfig{Spans: true, FlowCap: cap}, n, nil).Take()
	if len(rt.Flows) != cap {
		t.Fatalf("kept %d flows, want cap %d", len(rt.Flows), cap)
	}
	// The ring keeps the newest by (End, Flow): flows n-cap+1 .. n.
	for i, ft := range rt.Flows {
		if want := pkt.FlowID(n - cap + 1 + i); ft.Flow != want {
			t.Fatalf("flows[%d] = %d, want %d (newest-first retention broken)", i, ft.Flow, want)
		}
	}
	if rt.Stats.FlowsEvicted != n-cap {
		t.Fatalf("FlowsEvicted = %d, want %d", rt.Stats.FlowsEvicted, n-cap)
	}
}

func TestRecorderMaxPerFlow(t *testing.T) {
	const perFlow = 8
	eng := sim.NewEngine()
	s := trace.NewRecorder(eng, trace.RecorderConfig{Spans: true, MaxPerFlow: perFlow})
	e := trace.FlowEvent{Flow: 1, Src: 0, Dst: 1, Size: 1000}
	eng.Schedule(0, func() { s.FlowArrive(e, 0, false) })
	for i := 0; i < 3*perFlow; i++ {
		prio := i % 2 // alternate so every Epoch is a real transition
		eng.Schedule(sim.Duration(i+1)*sim.Microsecond, func() { s.Epoch(1, prio) })
	}
	eng.Schedule(100*sim.Microsecond, func() { s.FlowEnd(e, false) })
	if err := eng.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	rt := s.Take()
	if len(rt.Flows) != 1 {
		t.Fatalf("kept %d flows, want 1", len(rt.Flows))
	}
	ft := rt.Flows[0]
	if len(ft.Spans) != perFlow {
		t.Fatalf("spans = %d, want cap %d", len(ft.Spans), perFlow)
	}
	if ft.Truncated == 0 || rt.Stats.SpansTruncated != ft.Truncated {
		t.Fatalf("Truncated = %d, stats %d — truncation not counted",
			ft.Truncated, rt.Stats.SpansTruncated)
	}
}

func TestSpillMatchesBuffered(t *testing.T) {
	// Spill mode streams flows out at completion; its bytes must equal
	// the buffered path's canonical export exactly.
	cfg := trace.RecorderConfig{Spans: true, SampleN: 2, Seed: 3}
	flag := func(i int) bool { return i%5 == 0 }
	var want bytes.Buffer
	if err := driveFlows(t, cfg, 50, flag).Take().WritePerfetto(&want); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	cfg.SpanWriter = &got
	spill := driveFlows(t, cfg, 50, flag)
	rt := spill.Take()
	if len(rt.Flows) != 0 {
		t.Fatalf("spill mode retained %d flows", len(rt.Flows))
	}
	if err := spill.FinishSpill(rt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("spill output differs from buffered:\nspill:\n%s\nbuffered:\n%s",
			got.String(), want.String())
	}
}

func TestPerfettoValidJSON(t *testing.T) {
	rt := driveFlows(t, trace.RecorderConfig{Spans: true}, 10, func(i int) bool { return i == 3 }).Take()
	rt.Ctrl = []trace.CtrlSpan{
		{Flow: 1, SrcSide: true, Level: 1, Start: 100, Latency: 500, Outcome: trace.CtrlOK},
		{Flow: 2, Level: 0, Start: 200, Outcome: trace.CtrlReqDropped},
	}
	rt.Queue = []trace.QueueSample{{At: 1000, Port: "h0->tor0", Idx: 0, Len: 3, Bytes: 4500}}
	var buf bytes.Buffer
	if err := rt.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
		TraceEvents     []map[string]any  `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.OtherData["proto"] != "PASE" || doc.OtherData["nic_bps"] != "1000000000" {
		t.Fatalf("otherData = %v", doc.OtherData)
	}
	var ctrl, counters int
	for _, ev := range doc.TraceEvents {
		switch ev["cat"] {
		case "ctrl":
			ctrl++
		}
		if ev["ph"] == "C" {
			counters++
		}
	}
	if ctrl != 2 || counters != 1 {
		t.Fatalf("ctrl events = %d (want 2), counters = %d (want 1)", ctrl, counters)
	}
}

func TestRunTraceDigestSensitivity(t *testing.T) {
	mk := func() *trace.RunTrace {
		return driveFlows(t, trace.RecorderConfig{Spans: true}, 5, nil).Take()
	}
	a, b := mk(), mk()
	if a.Digest() != b.Digest() {
		t.Fatal("identical runs digest differently")
	}
	b.Flows[0].Size++
	if a.Digest() == b.Digest() {
		t.Fatal("digest blind to flow content")
	}
}
