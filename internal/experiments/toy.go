package experiments

import (
	"pase/internal/core/arbitration"
	"pase/internal/core/endhost"
	"pase/internal/netem"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/transport/pfabric"
	"pase/internal/workload"
)

// RunToy executes the Figure 3 toy scenario under the given protocol
// and returns the FCTs of flows 1..3.
//
// Topology: one rack, hosts {0: src1, 1: src2, 2: dst1, 3: dst2}.
// Flow 1: src1→dst1, 0.5 MB (highest priority: smallest size).
// Flow 2: src2→dst1, 0.75 MB (medium).
// Flow 3: src2→dst2, 1.0 MB (lowest).
// Link A is src2's uplink (flows 2, 3); link B is dst1's downlink
// (flows 1, 2). Flows 1 and 3 are link-disjoint.
func RunToy(p Protocol) [3]sim.Duration {
	eng := sim.NewEngine()
	var qf func(topology.QueueKind) netem.Queue
	switch p {
	case PFabric:
		qf = func(topology.QueueKind) netem.Queue { return netem.NewPFabric(PFabricQueueSize) }
	case PASE:
		qf = func(topology.QueueKind) netem.Queue {
			return netem.NewPrio(PASENumQueues, PASEQueueSize, MarkingThreshold)
		}
	default:
		panic("experiments: toy scenario compares pFabric and PASE")
	}
	net := topology.Build(eng, topology.SingleRack(4, qf))
	d := transport.NewDriver(net, nil)
	switch p {
	case PFabric:
		for _, st := range d.Stacks {
			st.NewControl = pfabric.New()
		}
	case PASE:
		params := DefaultPASEParams()
		params.Epoch = 100 * sim.Microsecond
		endhost.Attach(d, arbitration.NewSystem(net, params), endhost.DefaultConfig())
	}
	d.Schedule([]workload.FlowSpec{
		{ID: 1, Src: 0, Dst: 2, Size: 500_000, Start: 0},
		{ID: 2, Src: 1, Dst: 2, Size: 750_000, Start: 0},
		{ID: 3, Src: 1, Dst: 3, Size: 1_000_000, Start: 0},
	})
	if _, err := d.Run(sim.Time(30 * sim.Second)); err != nil {
		panic(err)
	}
	var out [3]sim.Duration
	for _, r := range d.Collector.Records() {
		if r.Done {
			out[r.ID-1] = r.FCT()
		} else {
			out[r.ID-1] = 30 * sim.Second // never finished within the run
		}
	}
	return out
}

// fig3 is the toy example of Figure 3: three flows, two links.
// Flow 1 (src1→dst1) is most urgent, flow 2 (src2→dst1) medium,
// flow 3 (src2→dst2) least. Flows 1 and 2 share dst1's downlink;
// flows 2 and 3 share src2's uplink. pFabric keeps transmitting
// flow 2 on the shared uplink only to have the packets die at the
// downlink, stalling flow 3; PASE's end-to-end arbitration throttles
// flow 2 at the source so flow 3 runs alongside flow 1.
func fig3(o Opts) *Result {
	res := &Result{
		ID: "3", Title: "Toy example: flow 3 stall",
		XLabel: "flow #", YLabel: "FCT (ms)",
	}
	for _, p := range []Protocol{PFabric, PASE} {
		fcts := RunToy(p)
		s := Series{Name: string(p)}
		for i, f := range fcts {
			s.X = append(s.X, float64(i+1))
			s.Y = append(s.Y, f.Millis())
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"flow sizes 0.5/0.75/1.0 MB; flows 1 and 3 share no link and could run in parallel")
	return res
}
