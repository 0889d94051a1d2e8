package transport_test

import (
	"testing"

	"pase/internal/check"
	"pase/internal/metrics"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
	"pase/internal/transport/expresspass"
	"pase/internal/transport/pdq"
	"pase/internal/transport/pfabric"
	"pase/internal/workload"
)

func redQueue(topology.QueueKind) netem.Queue { return netem.NewREDECN(225, 65) }

// TestPacketPathAllocs pins the steady-state packet path: a
// 1000-segment DCTCP flow between two hosts of one rack, wired as the
// runner wires it, allocates at most 0.2 objects per delivered data
// packet once packet pool and event free list are warm — data
// segments, ACKs, link events and the per-ACK RTO re-arm are all
// reused. What remains is Schedule's copy of its input and Run's
// summary (TestFlowTurnoverAllocs pins the flow itself at zero). The
// closure-per-hop, literal-per-packet path read 11.2.
func TestPacketPathAllocs(t *testing.T) {
	const segments = 1000
	net := topology.Build(sim.NewEngine(), topology.SingleRack(2, redQueue))
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	flow := pkt.FlowID(0)
	run := func() {
		flow++
		d.Schedule([]workload.FlowSpec{{ID: flow, Src: 0, Dst: 1, Size: segments * pkt.MSS, Start: net.Eng.Now()}})
		sum, err := d.Run(net.Eng.Now().Add(10 * sim.Second))
		if err != nil || sum.Completed != int(flow) {
			t.Fatalf("flow %d did not complete: %+v, %v", flow, sum, err)
		}
	}
	run() // warm-up: grows the pool, the free list and the queue rings
	perPkt := testing.AllocsPerRun(5, run) / segments
	t.Logf("%.3f allocations per delivered data packet", perPkt)
	if perPkt > 0.2 {
		t.Errorf("packet path allocates %.3f objects per delivered data packet, want <= 0.2", perPkt)
	}
}

// TestFlowTurnoverAllocs pins flow turnover: one complete flow —
// arrival, sender and receiver records, control, every packet, the
// last ACK, the flow record, and ExpressPass's credit state or PDQ's
// path and arbitrator entries — allocates nothing once the pools are
// warm, for every protocol of this package's tree and for both sinks
// (core/endhost holds PASE to the same). The arrivals are one endless
// chain, 10 ms apart, so each measured call runs exactly one flow from
// start to finish.
func TestFlowTurnoverAllocs(t *testing.T) {
	const segments, gap = 40, 10 * sim.Millisecond
	uses := func(ctl func(*transport.Sender) transport.Control) func(*transport.Driver) {
		return func(d *transport.Driver) {
			for _, st := range d.Stacks {
				st.NewControl = ctl
			}
		}
	}
	protocols := []struct {
		name   string
		queue  func(topology.QueueKind) netem.Queue
		attach func(*transport.Driver)
	}{
		{"DCTCP", redQueue, uses(dctcp.New(dctcp.DefaultConfig()))},
		{"D2TCP", redQueue, uses(dctcp.NewD2TCP(dctcp.DefaultConfig()))},
		{"L2DCT", redQueue, uses(dctcp.NewL2DCT(dctcp.DefaultConfig()))},
		{"pFabric", func(topology.QueueKind) netem.Queue { return netem.NewPFabric(76) }, uses(pfabric.New())},
		{"ExpressPass", func(topology.QueueKind) netem.Queue { return netem.NewCreditQueue(225, 8, 64) }, func(d *transport.Driver) {
			for _, l := range d.Net.Links {
				l.Port.Queue().(*netem.CreditQueue).Bind(l.Port)
			}
			expresspass.Attach(d, 1)
		}},
		{"PDQ", func(topology.QueueKind) netem.Queue { return netem.NewDropTail(225) }, func(d *transport.Driver) { pdq.Attach(d, false) }},
	}
	for _, p := range protocols {
		for _, sink := range []string{"stored", "stream"} {
			t.Run(p.name+"/"+sink, func(t *testing.T) {
				eng := sim.NewEngine()
				net := topology.Build(eng, topology.SingleRack(2, p.queue))
				d := transport.NewDriver(net, nil)
				p.attach(d)
				completed := func() int { return len(d.Collector.Records()) }
				if sink == "stream" {
					sc := metrics.NewStreamCollector(0.01)
					d.UseSink(sc)
					completed = sc.Completed
				}
				var id pkt.FlowID
				d.ScheduleStream(func() (workload.FlowSpec, bool) {
					id++
					return workload.FlowSpec{ID: id, Src: 0, Dst: 1, Size: segments * pkt.MSS, Start: sim.Time(id) * sim.Time(gap)}, true
				})
				one := func() {
					if err := eng.RunUntil(eng.Now().Add(gap)); err != nil {
						t.Fatal(err)
					}
				}
				// Warm-up: pools, event free list, queue rings, and room in
				// the stored collector for every record the measurement adds.
				const runs = 20
				for i := 0; i < 2*runs || (sink == "stored" && cap(d.Collector.Records())-completed() < 2*runs); i++ {
					one()
				}
				before := completed()
				if allocs := testing.AllocsPerRun(runs, one); allocs != 0 {
					t.Errorf("one flow allocates %.1f objects on a warm fabric, want 0", allocs)
				}
				if got := completed() - before; got != runs+1 {
					t.Fatalf("%d flows completed over %d measured calls", got, runs+1)
				}
			})
		}
	}
}

// TestRetainedPacketTripsPktLive breaks the ownership rule on purpose:
// a handler keeps a packet past Stack.receive — which releases it —
// and sends it again. The checker must say so.
func TestRetainedPacketTripsPktLive(t *testing.T) {
	eng := sim.NewEngine()
	net := topology.Build(eng, topology.SingleRack(2, redQueue))
	d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
	chk := check.New(func() int64 { return int64(eng.Now()) })
	for _, l := range net.Links {
		l.Port.AttachCheck(chk)
	}

	var kept *pkt.Packet
	rx := net.Host(1)
	inner := rx.Handler
	rx.Handler = func(p *pkt.Packet) {
		if kept == nil && p.Type == pkt.Data {
			kept = p
		}
		inner(p)
	}
	d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: 20 * pkt.MSS}})
	if sum, err := d.Run(sim.Time(sim.Second)); err != nil || sum.Completed != 1 {
		t.Fatalf("flow did not complete: %+v, %v", sum, err)
	}
	if chk.Total() != 0 {
		t.Fatalf("a clean run reported violations: %s", chk.Summary())
	}
	if kept == nil || !kept.Released() {
		t.Fatal("Stack.receive must release the packet once its handler returns")
	}
	rx.Send(kept)
	if chk.ByInvariant()[check.InvPktLive] == 0 {
		t.Fatal("re-sending a retained packet did not trip pkt_live")
	}
}
