package expresspass

import (
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/workload"
)

// rig builds a two-host rack of credit-shaping ports with ExpressPass
// attached, wired the way the experiment runner wires it.
func rig(t *testing.T) (*topology.Network, *transport.Driver, *System) {
	t.Helper()
	net := topology.Build(sim.NewEngine(), topology.SingleRack(2, func(topology.QueueKind) netem.Queue {
		return netem.NewCreditQueue(225, 8, 64)
	}))
	for _, l := range net.Links {
		l.Port.Queue().(*netem.CreditQueue).Bind(l.Port)
	}
	d := transport.NewDriver(net, nil)
	return net, d, Attach(d, 0)
}

// TestCreditFlowCompletes: one flow between two hosts finishes on
// credits alone, and — the protocol's point — no data packet is ever
// dropped, because every one was summoned by a shaped credit.
func TestCreditFlowCompletes(t *testing.T) {
	const segs = 400
	net, d, sys := rig(t)
	d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: segs * pkt.MSS}})
	sum, err := d.Run(sim.Time(sim.Second))
	if err != nil || sum.Completed != 1 {
		t.Fatalf("flow did not complete: %+v, %v", sum, err)
	}
	for _, l := range net.Links {
		st := l.Port.Queue().Stats()
		if st.DroppedData != 0 {
			t.Errorf("%s dropped %d data packets, want 0", l.Port.Name(), st.DroppedData)
		}
		if n := l.Port.Queue().Len(); n != 0 {
			t.Errorf("%s still queues %d packets", l.Port.Name(), n)
		}
	}
	tot := sys.Totals()
	if tot.Requests != 1 {
		t.Errorf("credit requests = %d, want 1", tot.Requests)
	}
	if tot.Credits < segs {
		t.Errorf("%d credits cannot have summoned %d segments", tot.Credits, segs)
	}
	if tot.Messages != tot.Credits+tot.Requests {
		t.Errorf("Messages = %d, want credits + requests = %d", tot.Messages, tot.Credits+tot.Requests)
	}
	if len(sys.hosts[1].flows) != 0 {
		t.Error("receiver kept crediting state for a finished flow")
	}
}

// TestCreditTickAllocs pins the credit pacer's steady state at zero
// allocations: each tick draws its credit from the pool and re-arms
// itself as an action on the flow's crediting state, and the credit is
// released where it dies. The flow is opened by a bare request with no
// sender behind it, so every credit crosses the rack and is wasted.
func TestCreditTickAllocs(t *testing.T) {
	net, _, sys := rig(t)
	rx := sys.hosts[1]
	rx.onCreditReq(&pkt.Packet{Flow: 9, Src: 0, Dst: 1, Type: pkt.CreditReq, Seq: 1 << 20})
	step := func() {
		if err := net.Eng.RunUntil(net.Eng.Now().Add(200 * sim.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm-up: pool, event free list, queue rings
	before := rx.credits
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("steady-state crediting allocates %.1f times per 200µs, want 0", allocs)
	}
	if rx.credits-before < 50 {
		t.Fatalf("only %d credits paced while measuring", rx.credits-before)
	}
	if sys.Totals().Wasted == 0 {
		t.Fatal("credits for a flow with no sender should count as wasted")
	}
}
