package trace_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/trace"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
	"pase/internal/workload"
)

func TestFlowLogTSV(t *testing.T) {
	var sb strings.Builder
	eng := sim.NewEngine()
	s := trace.NewRecorder(eng, trace.RecorderConfig{EventWriter: &sb})
	e := trace.FlowEvent{Flow: 7, Src: 0, Dst: 1, Size: 1000}
	eng.Schedule(1500, func() { s.FlowArrive(e, 0, false) })
	eng.Schedule(2_000_000, func() {
		e.FCT = 1_998_500
		s.FlowEnd(e, false)
	})
	if err := eng.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	rt := take(t, s)
	// Times and FCTs are nanoseconds, so sub-µs values survive.
	want := "# time_ns\tkind\tflow\tsrc\tdst\tsize\tfct_ns\n" +
		"1500\tstart\t7\t0\t1\t1000\t0\n" +
		"2000000\tdone\t7\t0\t1\t1000\t1998500\n"
	if got := sb.String(); got != want {
		t.Fatalf("TSV:\n%s\nwant:\n%s", got, want)
	}
	if rt.Stats.FlowEvents != 2 {
		t.Fatalf("FlowEvents = %d, want 2", rt.Stats.FlowEvents)
	}
}

func TestRingKeepsNewest(t *testing.T) {
	r := trace.Ring[int]{Cap: 3}
	for i := 1; i <= 7; i++ {
		r.Add(i)
	}
	if got := r.Items(); !slices.Equal(got, []int{5, 6, 7}) {
		t.Fatalf("Items = %v, want the newest three oldest first", got)
	}
	if r.Added() != 7 {
		t.Fatalf("Added = %d, want 7", r.Added())
	}
}

// congest runs three DCTCP senders into one receiver of a 4-host rack
// with a recorder built from cfg recording its flow events and sampling
// every queue each 50 µs, and returns the trace.
func congest(t *testing.T, cfg trace.RecorderConfig) *trace.RunTrace {
	t.Helper()
	eng := sim.NewEngine()
	net := topology.Build(eng, topology.SingleRack(4, func(topology.QueueKind) netem.Queue {
		return netem.NewREDECN(225, 65)
	}))
	cfg.Meta = testMeta
	s := trace.NewRecorder(eng, cfg)
	s.SampleQueues(50*sim.Microsecond, trace.AllPorts(net))
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	event := func(x *transport.Sender) trace.FlowEvent {
		return trace.FlowEvent{Flow: x.Spec.ID, Src: x.Spec.Src, Dst: x.Spec.Dst, Size: x.Spec.Size}
	}
	d.OnFlowStart = func(x *transport.Sender) { s.FlowArrive(event(x), 0, false) }
	d.OnFlowDone = func(x *transport.Sender) {
		e := event(x)
		e.FCT = x.FinishTime.Sub(x.Spec.Start)
		s.FlowEnd(e, x.Aborted)
	}
	// Three senders into one receiver: host 3's downlink must queue.
	var flows []workload.FlowSpec
	for i := 0; i < 3; i++ {
		flows = append(flows, workload.FlowSpec{
			ID: pkt.FlowID(i + 1), Src: pkt.NodeID(i), Dst: 3, Size: 400_000, Start: 0,
		})
	}
	d.Schedule(flows)
	if _, err := d.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	return take(t, s)
}

func TestSamplerObservesCongestion(t *testing.T) {
	var perfetto bytes.Buffer
	rt := congest(t, trace.RecorderConfig{SpanWriter: &perfetto})
	if len(rt.Queue) == 0 {
		t.Fatal("no samples recorded")
	}
	peaks := make(map[string]int)
	busiest := ""
	for _, sm := range rt.Queue {
		peaks[sm.Port] = max(peaks[sm.Port], sm.Len)
		if busiest == "" || peaks[sm.Port] > peaks[busiest] {
			busiest = sm.Port
		}
	}
	bottleneck := "tor0->h3"
	if peaks[bottleneck] < 10 {
		t.Fatalf("expected queue at %s, peaks: %v", bottleneck, peaks)
	}
	if busiest != bottleneck {
		t.Fatalf("busiest = %s, want %s", busiest, bottleneck)
	}

	var sb strings.Builder
	if err := rt.WriteQueueSamples(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), bottleneck) {
		t.Fatal("TSV missing bottleneck port")
	}
	// The Perfetto export carries every sample as a counter event.
	var counters int
	for _, ev := range perfettoEvents(t, perfetto.Bytes(), "") {
		if ev["ph"] == "C" {
			counters++
		}
	}
	if counters != len(rt.Queue) {
		t.Fatalf("Perfetto counter events = %d, want one per sample (%d)", counters, len(rt.Queue))
	}
}

// TestRecorderCapsCountEvicted: past the queue track's cap the recorder
// keeps the newest samples and counts the rest, so a truncated TSV can
// say so.
func TestRecorderCapsCountEvicted(t *testing.T) {
	full := congest(t, trace.RecorderConfig{})
	const sampleCap = 16
	capped := congest(t, trace.RecorderConfig{SampleCap: sampleCap})
	if len(full.Queue) <= sampleCap {
		t.Fatalf("uncapped run kept %d samples; the cap would not bite", len(full.Queue))
	}
	if st := full.Stats; st.SamplesEvicted != 0 {
		t.Fatalf("uncapped run evicted %d samples", st.SamplesEvicted)
	}
	if !slices.Equal(capped.Queue, full.Queue[len(full.Queue)-sampleCap:]) {
		t.Errorf("capped samples are not the newest %d", sampleCap)
	}
	if got, want := capped.Stats.SamplesEvicted, int64(len(full.Queue)-sampleCap); got != want {
		t.Errorf("SamplesEvicted = %d, want %d", got, want)
	}
}

func TestSamplerSparseness(t *testing.T) {
	// An idle fabric produces no samples at all.
	eng := sim.NewEngine()
	net := topology.Build(eng, topology.SingleRack(2, func(topology.QueueKind) netem.Queue {
		return netem.NewDropTail(100)
	}))
	rec := trace.NewRecorder(eng, trace.RecorderConfig{})
	rec.SampleQueues(100*sim.Microsecond, trace.AllPorts(net))
	if err := eng.RunUntil(sim.Time(10 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if n := len(take(t, rec).Queue); n != 0 {
		t.Fatalf("idle fabric recorded %d samples", n)
	}
}

func TestSamplerInvalidInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	trace.NewRecorder(sim.NewEngine(), trace.RecorderConfig{}).SampleQueues(0, nil)
}
