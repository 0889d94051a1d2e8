package trace_test

import (
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
	var l trace.FlowLog
	l.Add(trace.FlowEvent{At: sim.Time(1500), Kind: "start", Flow: 7, Src: 0, Dst: 1, Size: 1000})
	l.Add(trace.FlowEvent{At: sim.Time(2_000_000), Kind: "done", Flow: 7, Src: 0, Dst: 1, Size: 1000, FCT: 1_998_500})
	var sb strings.Builder
	if err := (&trace.RunTrace{Events: l.Items()}).WriteFlowEvents(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "start\t7") || !strings.Contains(out, "done\t7") {
		t.Fatalf("unexpected TSV:\n%s", out)
	}
	if len(l.Items()) != 2 {
		t.Fatal("events lost")
	}
}

func TestRingKeepsNewest(t *testing.T) {
	r := trace.Ring[int]{Cap: 3}
	var evicted []int
	for i := 1; i <= 7; i++ {
		if old := r.Add(i); old != 0 {
			evicted = append(evicted, old)
		}
	}
	if got := r.Items(); !slices.Equal(got, []int{5, 6, 7}) {
		t.Fatalf("Items = %v, want the newest three oldest first", got)
	}
	if !slices.Equal(evicted, []int{1, 2, 3, 4}) || r.Added() != 7 {
		t.Fatalf("evicted %v of %d added, want [1 2 3 4] of 7", evicted, r.Added())
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
	return s.Take()
}

func TestSamplerObservesCongestion(t *testing.T) {
	rt := congest(t, trace.RecorderConfig{})
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
}

// TestRecorderCapsCountEvicted: past a track's cap the recorder keeps
// the newest items and counts the rest, so a truncated TSV can say so.
func TestRecorderCapsCountEvicted(t *testing.T) {
	full := congest(t, trace.RecorderConfig{Events: true})
	const eventCap, sampleCap = 4, 16
	capped := congest(t, trace.RecorderConfig{Events: true, EventCap: eventCap, SampleCap: sampleCap})
	if len(full.Events) != 6 || len(full.Queue) <= sampleCap {
		t.Fatalf("uncapped run kept %d events, %d samples; the caps would not bite", len(full.Events), len(full.Queue))
	}
	if st := full.Stats; st.EventsEvicted != 0 || st.SamplesEvicted != 0 {
		t.Fatalf("uncapped run evicted %d events, %d samples", st.EventsEvicted, st.SamplesEvicted)
	}
	if !slices.Equal(capped.Events, full.Events[len(full.Events)-eventCap:]) {
		t.Errorf("capped events %v, want the newest %d of %v", capped.Events, eventCap, full.Events)
	}
	if got, want := capped.Stats.EventsEvicted, int64(len(full.Events)-eventCap); got != want {
		t.Errorf("EventsEvicted = %d, want %d", got, want)
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
	if n := len(rec.Take().Queue); n != 0 {
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
