package expresspass

import (
	"testing"

	"pase/internal/check"
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
	return rigOn(t, sim.NewEngine())
}

// rigOn is rig on eng, which may carry a checker.
func rigOn(t *testing.T, eng *sim.Engine) (*topology.Network, *transport.Driver, *System) {
	t.Helper()
	net := topology.Build(eng, topology.SingleRack(2, func(topology.QueueKind) netem.Queue {
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

// request delivers a credit request for flow, owing segs segments, at
// h and returns the crediting state it leaves there.
func request(h *hostState, flow pkt.FlowID, segs int32) *creditState {
	h.onCreditReq(&pkt.Packet{Flow: flow, Src: 0, Dst: 1, Type: pkt.CreditReq, Seq: segs})
	return h.flows[flow]
}

// TestStaleRequestOpensFreshState: credit states go round through
// their engine's list, so the record a finished flow dropped is the
// next flow's. Flow 1 ends in the worst state a life can end in —
// backed off, its jitter stream and every count advanced — and flow 2
// opens on its record; then a retransmitted request for flow 1 arrives.
// Both must open exactly as on a fresh host, never with the previous
// life's rate, w or credit counts.
func TestStaleRequestOpensFreshState(t *testing.T) {
	_, _, sys := rig(t)
	_, _, ref := rig(t)
	rx, fresh := sys.hosts[1], ref.hosts[1]
	// What a life may set differently: its host and its timer's handle.
	opening := func(cs creditState) creditState {
		cs.host, cs.timer = nil, sim.Timer{}
		return cs
	}

	old := request(rx, 1, 40)
	old.rate, old.w = float64(minRate), wMin
	old.creditsSent, old.dataRcvd, old.ackCredits, old.baseAck, old.baseData = 90, 30, 60, 50, 20
	old.rng.Uint64()
	rx.drop(old)

	reused := request(rx, 2, 7)
	if reused != old {
		t.Fatal("flow 2 did not open on flow 1's record: the test would prove nothing")
	}
	if got, want := opening(*reused), opening(*request(fresh, 2, 7)); got != want {
		t.Fatalf("flow 2 opened on the recycled record as %+v, want %+v", got, want)
	}
	stale := request(rx, 1, 40)
	if stale == reused || rx.flows[2] != reused {
		t.Fatal("the retransmitted request for flow 1 took over flow 2's state")
	}
	if got, want := opening(*stale), opening(*request(fresh, 1, 40)); got != want {
		t.Fatalf("flow 1's late request opened %+v, want fresh state %+v", got, want)
	}
}

// TestCheckedDropRetires: on a checked engine a dropped credit state is
// retired, not recycled: the next flow opens on a record of its own, and
// a tick that still reached the dropped one would panic.
func TestCheckedDropRetires(t *testing.T) {
	eng := sim.NewEngine()
	eng.AttachCheck(check.New(func() int64 { return int64(eng.Now()) }))
	_, _, sys := rigOn(t, eng)
	rx := sys.hosts[1]
	old := request(rx, 1, 40)
	rx.drop(old)
	if request(rx, 2, 40) == old {
		t.Fatal("a checked engine handed a dropped credit state to the next flow")
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("a tick on a retired credit state did not panic")
		}
	}()
	old.Fire(nil)
}

// TestLoneFlowClosedForm: a lone flow on an idle SingleRack(2) takes
// exact arithmetic. ExpressPass's form is the credit request crossing
// to the receiver, which sends its first credit at once, so the credit
// reaches the sender one request round trip after the flow opened;
// each later credit leaves one credit gap — the data serialization at
// half the credited line ceiling, plus the flow's own jitter draw —
// after the one before; each credit summons one segment, the last
// segment crosses both hops and its ACK both hops back. Each row runs
// twice back to back on the same host pair, the second flow on the
// first one's sender and credit state, and both must take the form's
// time to the nanosecond.
func TestLoneFlowClosedForm(t *testing.T) {
	const seed = 3
	cfg := topology.SingleRack(2, nil)
	oneWay := func(size int32) sim.Duration { return 2 * (cfg.LinkDelay + cfg.EdgeRate.Serialize(size)) }
	rate := float64(cfg.EdgeRate) * pkt.MTU / (pkt.MTU + pkt.CreditSize) * initRatio
	form := func(flow pkt.FlowID, size int64) sim.Duration {
		fct := 2 * oneWay(pkt.CreditSize) // the request out, the first credit back
		rng := sim.NewRand(seed ^ 0xc3ed17).Split(uint64(flow))
		last := pkt.DataPackets(size) - 1
		for range last {
			base := netem.BitRate(rate).Serialize(pkt.MTU)
			fct += base + sim.Duration(float64(base)*jitter*rng.Float64())
		}
		return fct + oneWay(pkt.SegmentWireSize(size, last)) + oneWay(pkt.HeaderSize)
	}
	for _, row := range []struct {
		name string
		size int64
	}{{"1-segment", pkt.MSS}, {"10KB", 10_000}} {
		t.Run(row.name, func(t *testing.T) {
			net := topology.Build(sim.NewEngine(), topology.SingleRack(2, func(topology.QueueKind) netem.Queue {
				return netem.NewCreditQueue(225, 8, 64)
			}))
			for _, l := range net.Links {
				l.Port.Queue().(*netem.CreditQueue).Bind(l.Port)
			}
			d := transport.NewDriver(net, nil)
			sys := Attach(d, seed)
			var senders []*transport.Sender
			d.OnFlowStart = func(s *transport.Sender) { senders = append(senders, s) }
			d.Schedule([]workload.FlowSpec{
				{ID: 1, Src: 0, Dst: 1, Size: row.size},
				{ID: 2, Src: 0, Dst: 1, Size: row.size, Start: sim.Time(10 * sim.Millisecond)},
			})
			if sum, err := d.Run(sim.Time(sim.Second)); err != nil || sum.Completed != 2 {
				t.Fatalf("%+v, %v", sum, err)
			}
			if senders[0] != senders[1] || sys.hosts[1].free.Len() != 1 {
				t.Fatalf("the second flow did not run on the first one's records (%d credit states idle)", sys.hosts[1].free.Len())
			}
			for _, r := range d.Collector.Records() {
				if want := form(pkt.FlowID(r.ID), row.size); r.FCT() != want {
					t.Errorf("flow %d took %v, want %v", r.ID, r.FCT(), want)
				}
			}
		})
	}
}
