package trace_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
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
	cfg.Meta = testMeta
	s := trace.NewRecorder(eng, cfg)
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

// take ends r's recording, failing t on a write error.
func take(t *testing.T, r *trace.Recorder) *trace.RunTrace {
	t.Helper()
	rt, err := r.Take()
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// spans drives n flows (see driveFlows) with the span tracks on, and
// returns the trace and its Perfetto bytes.
func spans(t *testing.T, cfg trace.RecorderConfig, n int, flag func(int) bool) (*trace.RunTrace, []byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg.SpanWriter = &buf
	return take(t, driveFlows(t, cfg, n, flag)), buf.Bytes()
}

// perfettoEvents parses Perfetto JSON and returns its trace events of
// category cat (every event when cat is "").
func perfettoEvents(t *testing.T, b []byte, cat string) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b)
	}
	var out []map[string]any
	for _, ev := range doc.TraceEvents {
		if cat == "" || ev["cat"] == cat {
			out = append(out, ev)
		}
	}
	return out
}

func TestRecorderSamplingDeterministic(t *testing.T) {
	// The sample draw is a pure function of (seed, flow): two recorders
	// with the same seed keep the same flows, a different seed keeps a
	// different set, and flagged flows survive regardless of the draw.
	const n, sampleN = 400, 4
	run := func(seed uint64, flag func(int) bool) (*trace.RunTrace, []byte) {
		return spans(t, trace.RecorderConfig{SampleN: sampleN, Seed: seed}, n, flag)
	}
	a, ab := run(7, nil)
	b, bb := run(7, nil)
	if a.Digest() != b.Digest() || !bytes.Equal(ab, bb) {
		t.Fatal("same seed produced different traces")
	}
	if kept := a.Stats.FlowsFinal; kept == 0 || kept == n || len(perfettoEvents(t, ab, "flow")) != int(kept) {
		t.Fatalf("sampleN=%d kept %d of %d flows, %d written", sampleN, kept, n, len(perfettoEvents(t, ab, "flow")))
	}
	if c, _ := run(8, nil); c.Digest() == a.Digest() {
		t.Fatal("different seed produced identical sample set")
	}
	if got := a.Stats.FlowsSampledOut + a.Stats.FlowsFinal; got != n {
		t.Fatalf("sampled-out %d + final %d != started %d",
			a.Stats.FlowsSampledOut, a.Stats.FlowsFinal, n)
	}

	_, fb := run(7, func(i int) bool { return true })
	flows := perfettoEvents(t, fb, "flow")
	if len(flows) != n {
		t.Fatalf("flagged flows dropped by sampling: kept %d of %d", len(flows), n)
	}
	for _, ev := range flows {
		if ev["args"].(map[string]any)["flagged"] != true {
			t.Fatalf("%s not flagged after retx mark", ev["name"])
		}
	}
}

func TestRecorderMaxPerFlow(t *testing.T) {
	const perFlow = 8
	eng := sim.NewEngine()
	var buf bytes.Buffer
	s := trace.NewRecorder(eng, trace.RecorderConfig{SpanWriter: &buf, MaxPerFlow: perFlow})
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
	rt := take(t, s)
	flows := perfettoEvents(t, buf.Bytes(), "flow")
	if len(flows) != 1 || rt.Stats.FlowsFinal != 1 {
		t.Fatalf("wrote %d flows (stats %d), want 1", len(flows), rt.Stats.FlowsFinal)
	}
	if n := len(perfettoEvents(t, buf.Bytes(), "phase")); n != perFlow {
		t.Fatalf("spans = %d, want cap %d", n, perFlow)
	}
	truncated := flows[0]["args"].(map[string]any)["truncated"].(float64)
	if truncated == 0 || rt.Stats.SpansTruncated != int64(truncated) {
		t.Fatalf("truncated = %v, stats %d — truncation not counted", truncated, rt.Stats.SpansTruncated)
	}
}

// TestFlowTracksCanonicalOrder: flows that start and end at one instant
// come out of both flow tracks in canonical order whatever order their
// events fired in, and the digest does not see that order either.
func TestFlowTracksCanonicalOrder(t *testing.T) {
	run := func(ids []pkt.FlowID) (*trace.RunTrace, string, []byte) {
		var events, spans bytes.Buffer
		eng := sim.NewEngine()
		s := trace.NewRecorder(eng, trace.RecorderConfig{Meta: testMeta, EventWriter: &events, SpanWriter: &spans})
		at := func(d sim.Duration, fn func(trace.FlowEvent)) {
			eng.Schedule(d, func() {
				for _, f := range ids {
					fn(trace.FlowEvent{Flow: f, Src: 0, Dst: 1, Size: 1000})
				}
			})
		}
		at(0, func(e trace.FlowEvent) { s.FlowArrive(e, 0, false) })
		at(10*sim.Microsecond, func(e trace.FlowEvent) { s.FlowEnd(e, false) })
		// A later flow moves the clock on, so the 10 µs group flushes
		// while the run goes rather than at Take.
		late := trace.FlowEvent{Flow: 9, Src: 0, Dst: 1, Size: 1000}
		eng.Schedule(20*sim.Microsecond, func() { s.FlowArrive(late, 0, false) })
		eng.Schedule(30*sim.Microsecond, func() { s.FlowEnd(late, false) })
		if err := eng.RunUntil(sim.Time(sim.Second)); err != nil {
			t.Fatal(err)
		}
		return take(t, s), events.String(), spans.Bytes()
	}
	fwd, fwdEvents, fwdSpans := run([]pkt.FlowID{1, 2, 3, 4})
	rev, revEvents, revSpans := run([]pkt.FlowID{4, 3, 2, 1})

	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(revEvents), "\n")[1:] {
		f := strings.Split(line, "\t")
		rows = append(rows, f[1]+" "+f[2])
	}
	want := []string{"start 1", "start 2", "start 3", "start 4", "done 1", "done 2", "done 3", "done 4", "start 9", "done 9"}
	if !slices.Equal(rows, want) {
		t.Errorf("flow-event TSV rows %v, want %v", rows, want)
	}
	var names []string
	for _, ev := range perfettoEvents(t, revSpans, "flow") {
		names = append(names, ev["name"].(string))
	}
	if want := []string{"flow 1", "flow 2", "flow 3", "flow 4", "flow 9"}; !slices.Equal(names, want) {
		t.Errorf("Perfetto flow sections %v, want %v", names, want)
	}
	if revEvents != fwdEvents || !bytes.Equal(revSpans, fwdSpans) {
		t.Error("flows ended in reverse id order wrote other bytes than in id order")
	}
	if rev.Digest() != fwd.Digest() {
		t.Errorf("digest %#x for flows ended in reverse id order, %#x in id order", rev.Digest(), fwd.Digest())
	}
}

func TestPerfettoValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := driveFlows(t, trace.RecorderConfig{SpanWriter: &buf}, 10, func(i int) bool { return i == 3 })
	s.Ctrl(trace.CtrlSpan{Flow: 1, SrcSide: true, Level: 1, Start: 100, Latency: 500, Outcome: trace.CtrlOK})
	s.Ctrl(trace.CtrlSpan{Flow: 2, Level: 0, Start: 200, Outcome: trace.CtrlReqDropped})
	take(t, s)
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.OtherData["proto"] != "PASE" || doc.OtherData["nic_bps"] != "1000000000" {
		t.Fatalf("otherData = %v", doc.OtherData)
	}
	if ctrl, flows := len(perfettoEvents(t, buf.Bytes(), "ctrl")), len(perfettoEvents(t, buf.Bytes(), "flow")); ctrl != 2 || flows != 10 {
		t.Fatalf("ctrl events = %d (want 2), flows = %d (want 10)", ctrl, flows)
	}
}

func TestRunTraceDigestSensitivity(t *testing.T) {
	mk := func(flag func(int) bool) *trace.RunTrace {
		rt, _ := spans(t, trace.RecorderConfig{}, 5, flag)
		return rt
	}
	a, b := mk(nil), mk(nil)
	if a.Digest() != b.Digest() {
		t.Fatal("identical runs digest differently")
	}
	if c := mk(func(i int) bool { return i == 2 }); a.Digest() == c.Digest() {
		t.Fatal("digest blind to flow content")
	}
}
