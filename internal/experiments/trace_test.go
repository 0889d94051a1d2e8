package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"pase/internal/faults"
	"pase/internal/sim"
)

// The flight recorder's contract is the same as the rest of the run
// machinery: traced runs produce byte-identical output at every
// parallelism and collector mode. The pin registry
// (pins_test.go) holds those byte equalities in its trace-* and traced-*
// rows; these tests check what a trace records.

func tracedPoint() PointConfig {
	return PointConfig{
		Protocol: DCTCP,
		Scenario: LeftRight,
		Load:     0.7,
		Seed:     11,
		NumFlows: 150,
		Check:    true,
		Trace:    TraceConfig{QueueSample: 100 * sim.Microsecond},
	}
}

// tracedChaosPoint is a traced PASE run that loses 30% of its control
// exchanges.
func tracedChaosPoint() PointConfig {
	cfg := tracedPoint()
	cfg.Protocol = PASE // arbitration hierarchy + fault surface
	cfg.Faults = &faults.Plan{Seed: 5, Ctrl: []faults.CtrlFault{{Drop: 0.3}}}
	return cfg
}

// perfettoBytes runs cfg with its span tracks streaming into a buffer
// and returns the Perfetto bytes.
func perfettoBytes(t *testing.T, cfg PointConfig) ([]byte, PointResult) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Trace.SpanWriter = &buf
	r := runChecked(t, cfg)
	if r.Trace == nil {
		t.Fatal("no trace recorded")
	}
	return buf.Bytes(), r
}

// TestTracedChaosDeterminism: fault injection composes with tracing —
// the dropped control exchanges appear as spans. (The traced-pase-chaos
// pin holds the trace bytes.)
func TestTracedChaosDeterminism(t *testing.T) {
	_, serial := perfettoBytes(t, tracedChaosPoint())
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
}

// TestOffTracksRecordNothing: the PASE endpoint, the arbitration
// hierarchy and every stack hold the recorder whenever any track is on,
// so a faulted PASE run with only the flow-event track, or only the
// queue track, must still open no flow traces and record no control
// spans.
func TestOffTracksRecordNothing(t *testing.T) {
	for _, tc := range []TraceConfig{{FlowLogWriter: io.Discard}, {QueueSample: 100 * sim.Microsecond}} {
		cfg := tracedChaosPoint()
		cfg.Trace = tc
		r := runChecked(t, cfg)
		if r.Trace == nil || r.Trace.Stats.FlowEvents+int64(len(r.Trace.Queue)) == 0 {
			t.Fatalf("%+v: the track that was on recorded nothing", tc)
		}
		if rt, st := r.Trace, r.Trace.Stats; len(rt.Ctrl) != 0 || st.CtrlTotal != 0 || st.FlowsStarted != 0 {
			t.Errorf("%+v: span tracks off, yet %d control spans (%d offered) and %d flow traces recorded",
				tc, len(rt.Ctrl), st.CtrlTotal, st.FlowsStarted)
		}
	}
}

// TestPASETraceCtrlAndHistograms: a traced PASE run records the full
// control-plane story — wait spans, grant marks, per-level arbitration
// RTT histograms and the inflight-allocations gauge.
// TestHeldFlowsOpenWaiting reads each flow's phase spans from the
// Perfetto track: a flow its protocol holds at start (PASE until its
// grant, PDQ until its first rate, ExpressPass until its first credit)
// opens with one wait-ctrl span and transmits after it; a DCTCP flow
// transmits from its arrival.
func TestHeldFlowsOpenWaiting(t *testing.T) {
	for _, p := range []Protocol{DCTCP, PASE, PDQ, ExpressPass} {
		cfg := tracedPoint()
		cfg.Protocol, cfg.NumFlows = p, 40
		b, _ := perfettoBytes(t, cfg)
		var doc struct {
			TraceEvents []struct {
				Pid, Tid  int
				Name, Cat string
			}
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		phases := map[int][]string{}
		for _, ev := range doc.TraceEvents {
			if ev.Pid == 1 && ev.Cat == "phase" {
				phases[ev.Tid] = append(phases[ev.Tid], ev.Name)
			}
		}
		if len(phases) != cfg.NumFlows {
			t.Fatalf("%s: %d flow tracks, want %d", p, len(phases), cfg.NumFlows)
		}
		held := p != DCTCP
		for flow, names := range phases {
			xfer := names
			if held {
				if names[0] != "wait-ctrl" {
					t.Errorf("%s flow %d opens with %q, want wait-ctrl", p, flow, names[0])
				}
				xfer = names[1:]
			}
			if len(xfer) == 0 {
				t.Errorf("%s flow %d has no transmit span: %q", p, flow, names)
			}
			for _, n := range xfer {
				if !strings.HasPrefix(n, "xfer q") {
					t.Errorf("%s flow %d: %q after its first phase, want only transmit spans: %q", p, flow, n, names)
				}
			}
		}
	}
}

func TestPASETraceCtrlAndHistograms(t *testing.T) {
	cfg := tracedPoint()
	cfg.Protocol = PASE
	cfg.Obs = true
	b, r := perfettoBytes(t, cfg)
	if r.Trace.Stats.CtrlTotal == 0 {
		t.Fatal("no control spans recorded")
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Cat  string
			Dur  float64
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	// A flow has at most one wait span, its first.
	var waits, grants int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Cat == "phase" && ev.Name == "wait-ctrl" && ev.Dur > 0:
			waits++
		case ev.Cat == "mark" && ev.Name == "grant":
			grants++
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
// stats keep the full population count. (The traced-sampled pin holds
// the trace bytes.)
func TestTraceSamplingKeepsBudget(t *testing.T) {
	cfg := tracedPoint()
	cfg.Trace.SampleN = 8
	_, serial := perfettoBytes(t, cfg)
	st := serial.Trace.Stats
	if st.FlowsSampledOut == 0 {
		t.Fatal("sampleN=8 kept every flow")
	}
	if st.FlowsStarted != st.FlowsFinal+st.FlowsSampledOut+st.FlowsUnfinished {
		t.Fatalf("retention stats don't add up: %+v", st)
	}
}
