package endhost

import (
	"reflect"
	"testing"

	"pase/internal/core/arbitration"
	"pase/internal/metrics"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/transport"
	"pase/internal/workload"
)

// TestFlowTurnoverAllocs: on a warm single-rack PASE fabric one flow —
// arrival, sender and receiver records, control and client, both
// arbitration halves, every packet, the release, the flow record —
// allocates nothing, for both sinks, as transport's test of the same
// name holds for DCTCP and pFabric. The arrivals are one endless chain,
// 10 ms apart, so each measured call runs one flow from start to
// finish.
func TestFlowTurnoverAllocs(t *testing.T) {
	const segments, gap = 40, 10 * sim.Millisecond
	for _, sink := range []string{"stored", "stream"} {
		t.Run(sink, func(t *testing.T) {
			r := newRig(t, DefaultConfig())
			completed := func() int { return len(r.d.Collector.Records()) }
			if sink == "stream" {
				sc := metrics.NewStreamCollector(0.01)
				r.d.UseSink(sc)
				completed = sc.Completed
			}
			var id pkt.FlowID
			r.d.ScheduleStream(func() (workload.FlowSpec, bool) {
				id++
				return workload.FlowSpec{ID: id, Src: 0, Dst: 1, Size: segments * pkt.MSS, Start: sim.Time(id) * sim.Time(gap)}, true
			})
			one := func() {
				if err := r.eng.RunUntil(r.eng.Now().Add(gap)); err != nil {
					t.Fatal(err)
				}
			}
			const runs = 20
			for i := 0; i < 2*runs || (sink == "stored" && cap(r.d.Collector.Records())-completed() < 2*runs); i++ {
				one()
			}
			before, setups := completed(), r.sys.Stats.Setups
			if allocs := testing.AllocsPerRun(runs, one); allocs != 0 {
				t.Errorf("one PASE flow allocates %.1f objects on a warm fabric, want 0", allocs)
			}
			if got := completed() - before; got != runs+1 || r.sys.Stats.Setups-setups != runs+1 {
				t.Fatalf("%d flows completed and %d arbitrated over %d measured calls", got, r.sys.Stats.Setups-setups, runs+1)
			}
		})
	}
}

// TestControlStartsOverWithItsSender: a PASE control goes round with
// its sender record, client included, and a recycled one starts its
// next flow exactly as a new one does. Every flow's control is left in
// the worst state a life can end in — fallen back, mid-backoff,
// awaiting, guarding, probing, started and stopped — and the flow that
// takes the record back must open as the first flow did, with no
// client half answered.
func TestControlStartsOverWithItsSender(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var made []*control
	var started []control
	r.d.OnFlowStart = func(s *transport.Sender) {
		c := s.Control().(*control)
		made, started = append(made, c), append(started, *c)
		if c.client.Ready() || c.client.Combined() != (arbitration.Decision{Queue: c.bottomQueue()}) {
			t.Errorf("flow %d opened with an answered client: %+v", s.Spec.ID, c.client.Combined())
		}
	}
	shutdown := r.d.OnFlowDone
	ended := 0
	r.d.OnFlowDone = func(s *transport.Sender) {
		shutdown(s)
		c := s.Control().(*control)
		if c.client.Ready() {
			ended++
		}
		c.fallback, c.misses, c.awaiting, c.guarding, c.probeMode = true, 9, true, true, true
		c.isInterQueue, c.rref, c.activePrio, c.targetPrio = true, 1, 3, 2
		c.w.Alpha = 0.5
	}
	r.d.Schedule([]workload.FlowSpec{
		{ID: 1, Src: 0, Dst: 2, Size: 400 * pkt.MSS},
		{ID: 2, Src: 1, Dst: 2, Size: 600 * pkt.MSS},
		{ID: 3, Src: 0, Dst: 2, Size: 3 * pkt.MSS, Start: sim.Time(100 * sim.Millisecond)},
	})
	if sum, err := r.d.Run(sim.Time(sim.Second)); err != nil || sum.Completed != 3 {
		t.Fatalf("run: %+v, %v", sum, err)
	}
	if len(made) != 3 || made[0] == made[1] || (made[2] != made[0] && made[2] != made[1]) {
		t.Fatalf("flow 3 should reuse an ended flow's control: %p %p %p", made[0], made[1], made[2])
	}
	if ended != 3 {
		t.Fatalf("%d of 3 flows ended with an answered client: too clean for the reuse to prove anything", ended)
	}
	// What a life may set differently: its client's flow, its timers'
	// handles and when it last heard from the control plane.
	opening := func(c control) control {
		c.client, c.refreshTimer, c.probeTimer, c.lastHeard = arbitration.Client{}, sim.Timer{}, sim.Timer{}, 0
		return c
	}
	if got, want := opening(started[2]), opening(started[0]); !reflect.DeepEqual(got, want) {
		t.Fatalf("the recycled control opened flow 3 as %+v, want flow 1's %+v", got, want)
	}
}
