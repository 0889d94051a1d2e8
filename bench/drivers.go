package main

import (
	"runtime"
	"time"

	"pase/internal/core/arbitration"
	"pase/internal/experiments"
	"pase/internal/metrics"
	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/trace"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
	wl "pase/internal/workload"
)

// Layer drivers: closed single-goroutine loops over one layer's public
// functions, independent of any workload. Each driver is timed in
// batches; a batch is one span recorded here, around the calls into
// the layer, and the reported figure is the median batch's cost per
// operation.

// driverDef is one layer driver. Make does the untimed set-up and
// returns the batch function plus an optional teardown.
type driverDef struct {
	Name string
	Unit string // "ns" or "us" per op
	// AllocsAs, when set, names a second metric: the driver's heap
	// allocations per op.
	AllocsAs string
	// Ops is the operation count of one batch at -scale 1, sized so a
	// batch lasts 10–20 ms on the reference host.
	Ops  int
	Make func() (batch func(ops int) (done int), teardown func())
}

// span is one timed interval recorded by the harness. Children of the
// orchestrator and driver batches are both spans; Parent names the
// enclosing one.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Ops     int    `json:"ops,omitempty"`
	Allocs  uint64 `json:"allocs,omitempty"`
}

// runDrivers executes every driver in the given number of batches and
// returns its metrics and spans. origin anchors span start times; scale
// shrinks the batches for the self-test.
func runDrivers(origin time.Time, scale float64, batches int) (map[string]float64, []span) {
	out := make(map[string]float64, len(driverDefs))
	var spans []span
	for _, d := range driverDefs {
		ops := int(float64(d.Ops) * scale)
		if ops < 1 {
			ops = 1
		}
		batch, teardown := d.Make()
		var perOp, allocsPerOp []float64
		for b := 0; b < batches; b++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			done := batch(ops)
			dur := time.Since(start)
			runtime.ReadMemStats(&m1)
			spans = append(spans, span{
				Name: d.Name, Parent: "drivers",
				StartNs: start.Sub(origin).Nanoseconds(), DurNs: dur.Nanoseconds(),
				Ops: done, Allocs: m1.Mallocs - m0.Mallocs,
			})
			perOp = append(perOp, float64(dur.Nanoseconds())/float64(done))
			allocsPerOp = append(allocsPerOp, float64(m1.Mallocs-m0.Mallocs)/float64(done))
		}
		if teardown != nil {
			teardown()
		}
		v := medianOf(perOp)
		if d.Unit == "us" {
			v /= 1e3
		}
		out[d.Name] = v
		if d.AllocsAs != "" {
			out[d.AllocsAs] = medianOf(allocsPerOp)
		}
	}
	return out, spans
}

// driverMetrics lists every metric the drivers yield.
func driverMetrics() []metricDef {
	var out []metricDef
	for _, d := range driverDefs {
		out = append(out, metricDef{Name: d.Name, Unit: d.Unit, Better: "lower"})
		if d.AllocsAs != "" {
			out = append(out, metricDef{Name: d.AllocsAs, Unit: "count", Better: "lower"})
		}
	}
	return out
}

var nop = func() {}

// scheduleFire is the engine's inner loop at a fixed calendar depth:
// every fired event is replaced by one scheduled a full depth ahead.
func scheduleFire(depth int) func() (func(int) int, func()) {
	return func() (func(int) int, func()) {
		e := sim.NewEngine()
		for i := 0; i < depth; i++ {
			e.Schedule(sim.Duration(i)*sim.Microsecond, nop)
		}
		ahead := sim.Duration(depth) * sim.Microsecond
		return func(n int) int {
			for i := 0; i < n; i++ {
				e.Schedule(ahead, nop)
				e.Step()
			}
			return n
		}, nil
	}
}

// queueDriver is netem's own queue benchmark shape: 256 recycled
// packets, two enqueues per dequeue, so the queue sits at its limit.
func queueDriver(mk func() netem.Queue) func() (func(int) int, func()) {
	return func() (func(int) int, func()) {
		q := mk()
		ps := make([]*pkt.Packet, 256)
		for i := range ps {
			ps[i] = &pkt.Packet{
				Flow: pkt.FlowID(i % 16), Seq: int32(i),
				Prio: int8(i % 8), Rank: int64(i % 977),
				Size: pkt.MTU, Type: pkt.Data, ECT: true,
			}
		}
		return func(n int) int {
			for i := 0; i < n; i++ {
				p := ps[i%len(ps)]
				p.CE = false
				q.Enqueue(p)
				if i%2 == 1 {
					q.Dequeue()
				}
			}
			return n
		}, nil
	}
}

func redQueue(topology.QueueKind) netem.Queue {
	return netem.NewREDECN(experiments.DCTCPQueueSize, experiments.MarkingThreshold)
}

func prioQueue(topology.QueueKind) netem.Queue {
	return netem.NewPrio(experiments.PASENumQueues, experiments.PASEQueueSize, experiments.MarkingThreshold)
}

// ctrlScale512 is the ctrlscale-512 fabric as experiments builds it.
func ctrlScale512(nq func(topology.QueueKind) netem.Queue) topology.Config {
	return topology.Config{
		Racks: 512, HostsPerRack: experiments.CtrlScaleHostsPerRack,
		RacksPerAgg: experiments.CtrlScaleRacksPerAgg,
		EdgeRate:    netem.Gbps, FabricRate: 10 * netem.Gbps,
		LinkDelay: experiments.HighspeedLinkDelay,
		NewQueue:  nq,
	}
}

// paseParams mirrors the runner's arbitration set-up for a fabric.
func paseParams(net *topology.Network, epoch sim.Duration, hier arbitration.HierarchyParams) arbitration.Params {
	p := experiments.DefaultPASEParams()
	p.Epoch = epoch
	p.CtrlPerHop = net.Cfg.LinkDelay + 5*sim.Microsecond
	p.Hierarchy = hier
	return p
}

// refreshDriver times Client.Refresh over a 64-flow book of cross-
// fabric flows, draining the reply events once per round of the book
// (the System's periodic share refresh runs inside those drains, as it
// does in a run).
func refreshDriver(cfg func(func(topology.QueueKind) netem.Queue) topology.Config, epoch sim.Duration, hier arbitration.HierarchyParams) func() (func(int) int, func()) {
	return func() (func(int) int, func()) {
		e := sim.NewEngine()
		net := topology.Build(e, cfg(prioQueue))
		sys := arbitration.NewSystem(net, paseParams(net, epoch, hier))
		hosts := net.NumHosts()
		clients := make([]*arbitration.Client, 64)
		for i := range clients {
			src := i * (hosts / 2) / len(clients)
			clients[i] = sys.NewClient(pkt.FlowID(i+1), pkt.NodeID(src), pkt.NodeID(src+hosts/2))
		}
		return func(n int) int {
			for i := 0; i < n; i++ {
				clients[i%len(clients)].Refresh(int64(i%977)*1000, netem.Gbps)
				if i%len(clients) == len(clients)-1 {
					e.RunUntil(e.Now().Add(epoch))
				}
			}
			return n
		}, nil
	}
}

// sinkNode terminates a link and counts arrivals.
type sinkNode struct{ got int }

func (s *sinkNode) ID() pkt.NodeID                   { return 0 }
func (s *sinkNode) Receive(*pkt.Packet, *netem.Port) { s.got++ }

// a2aSpec is the leaf-spine-wide arrival process.
func a2aSpec(flows int) wl.Spec {
	return wl.Spec{
		Pattern:   wl.AllToAll{Hosts: wl.HostRange(0, 80)},
		Sizes:     wl.UniformSize{Min: experiments.ShortFlowMin, Max: experiments.ShortFlowMax},
		Load:      0.6,
		Reference: 80 * netem.Gbps,
		NumFlows:  flows,
	}
}

const burst = 16 // packets sent back to back before the engine drains

var driverDefs = []driverDef{
	{Name: "drv.sim.schedule_fire_ns", Unit: "ns", Ops: 100_000, Make: scheduleFire(512)},
	{Name: "drv.sim.schedule_fire_deep_ns", Unit: "ns", Ops: 80_000, Make: scheduleFire(16384)},
	{Name: "drv.sim.timer_stop_ns", Unit: "ns", Ops: 400_000, Make: func() (func(int) int, func()) {
		e := sim.NewEngine()
		return func(n int) int {
			for i := 0; i < n; i++ {
				e.Schedule(sim.Millisecond, nop).Stop()
			}
			return n
		}, nil
	}},
	// Rank mode as a sharded run drives it: 512 self-rescheduling
	// events on one ranked shard, a barrier (with rank stamping) every
	// 1024 events.
	{Name: "drv.sim.rank_schedule_fire_ns", Unit: "ns", Ops: 64 * 1024, Make: func() (func(int) int, func()) {
		const depth = 512
		window := sim.Duration(1024) * sim.Microsecond
		se, err := sim.NewShardedEngine(1, window)
		if err != nil {
			panic(err)
		}
		e := se.Shard(0)
		var fn func()
		fn = func() { e.Schedule(depth*sim.Microsecond, fn) }
		for i := 0; i < depth; i++ {
			e.Schedule(sim.Duration(i)*sim.Microsecond, fn)
		}
		return func(n int) int {
			start := e.Executed
			for e.Executed-start < uint64(n) {
				se.StepWindow(se.Now().Add(window))
			}
			return int(e.Executed - start)
		}, se.Close
	}},
	// One cross-shard event end to end: slot capture and Handoff on
	// shard 0, barrier injection, firing on shard 1 — 64 per window.
	{Name: "drv.sim.handoff_ns", Unit: "ns", Ops: 64 * 1500, Make: func() (func(int) int, func()) {
		const lookahead, perWindow = 100, 64
		se, err := sim.NewShardedEngine(2, lookahead)
		if err != nil {
			panic(err)
		}
		e0 := se.Shard(0)
		var send func()
		send = func() {
			at := e0.Now().Add(lookahead)
			for j := 0; j < perWindow; j++ {
				ctx, k := e0.ChildSlot()
				se.Handoff(0, 1, at, ctx, k, nop)
			}
			e0.Schedule(lookahead, send)
		}
		e0.Schedule(0, send)
		return func(n int) int {
			windows := n / perWindow
			for w := 0; w < windows; w++ {
				se.StepWindow(se.Now().Add(lookahead))
			}
			return windows * perWindow
		}, se.Close
	}},
	{Name: "drv.sim.null_window_ns", Unit: "ns", Ops: 4000, Make: func() (func(int) int, func()) {
		se, err := sim.NewShardedEngine(2, 100)
		if err != nil {
			panic(err)
		}
		return func(n int) int {
			for i := 0; i < n; i++ {
				se.StepWindow(se.Now().Add(100))
			}
			return n
		}, se.Close
	}},

	{Name: "drv.netem.droptail_ns", Unit: "ns", Ops: 500_000, Make: queueDriver(func() netem.Queue {
		return netem.NewDropTail(experiments.DCTCPQueueSize)
	})},
	{Name: "drv.netem.redecn_ns", Unit: "ns", Ops: 500_000, Make: queueDriver(func() netem.Queue {
		return redQueue(topology.QueueSwitchUp)
	})},
	{Name: "drv.netem.prio8_ns", Unit: "ns", Ops: 400_000, Make: queueDriver(func() netem.Queue {
		return prioQueue(topology.QueueSwitchUp)
	})},
	{Name: "drv.netem.pfabric_ns", Unit: "ns", Ops: 40_000, Make: queueDriver(func() netem.Queue {
		return netem.NewPFabric(experiments.PFabricQueueSize)
	})},
	// Every fourth packet is a credit; the clock advances so the paced
	// credit class keeps draining.
	{Name: "drv.netem.creditq_ns", Unit: "ns", Ops: 400_000, Make: func() (func(int) int, func()) {
		q := netem.NewCreditQueue(experiments.DCTCPQueueSize, experiments.CreditQueueSize, experiments.CreditCtrlQueueSize)
		q.Gap = sim.Microsecond
		var now sim.Time
		q.BindClock(func() sim.Time { return now })
		ps := make([]*pkt.Packet, 256)
		for i := range ps {
			ps[i] = &pkt.Packet{Flow: pkt.FlowID(i % 16), Size: pkt.MTU, Type: pkt.Data}
			if i%4 == 0 {
				ps[i].Size, ps[i].Type = pkt.CreditSize, pkt.Credit
			}
		}
		return func(n int) int {
			for i := 0; i < n; i++ {
				now = now.Add(500)
				q.Enqueue(ps[i%len(ps)])
				if i%2 == 1 {
					q.Dequeue()
				}
			}
			return n
		}, nil
	}},
	// Port.Send through serialization and propagation to the peer's
	// Receive: two events per packet.
	{Name: "drv.netem.port_hop_ns", Unit: "ns", Ops: 40_000, Make: func() (func(int) int, func()) {
		e := sim.NewEngine()
		src, dst := &sinkNode{}, &sinkNode{}
		a := netem.NewPort(e, src, netem.NewDropTail(experiments.DCTCPQueueSize), netem.Gbps, 25*sim.Microsecond)
		b := netem.NewPort(e, dst, netem.NewDropTail(experiments.DCTCPQueueSize), netem.Gbps, 25*sim.Microsecond)
		netem.Connect(a, b)
		ps := make([]*pkt.Packet, burst)
		for i := range ps {
			ps[i] = &pkt.Packet{Size: pkt.MTU, Type: pkt.Data}
		}
		return func(n int) int {
			before := dst.got
			for i := 0; i < n; i += burst {
				for _, p := range ps {
					a.Send(p)
				}
				if err := e.Run(); err != nil {
					panic(err)
				}
			}
			return dst.got - before
		}, nil
	}},
	// Host to host through one switch: NIC send, Switch.Receive's route
	// lookup, egress port, delivery — per packet, two hops.
	{Name: "drv.netem.switch_hop_ns", Unit: "ns", Ops: 24_000, Make: func() (func(int) int, func()) {
		e := sim.NewEngine()
		net := topology.Build(e, topology.SingleRack(2, func(topology.QueueKind) netem.Queue {
			return netem.NewDropTail(experiments.DCTCPQueueSize)
		}))
		net.Host(1).Handler = func(*pkt.Packet) {}
		ps := make([]*pkt.Packet, burst)
		for i := range ps {
			ps[i] = &pkt.Packet{Src: 0, Dst: 1, Size: pkt.MTU, Type: pkt.Data}
		}
		return func(n int) int {
			for i := 0; i < n; i += burst {
				for _, p := range ps {
					p.Hops = 0
					net.Host(0).Send(p)
				}
				if err := e.Run(); err != nil {
					panic(err)
				}
			}
			return (n + burst - 1) / burst * burst
		}, nil
	}},

	{Name: "drv.topology.route_pick_ns", Unit: "ns", Ops: 1_000_000, Make: func() (func(int) int, func()) {
		rt := topology.NewRouteTable(0, []int{0, 1, 2, 3}, 8)
		return func(n int) int {
			s := 0
			for i := 0; i < n; i++ {
				s += rt.Pick(i%8, pkt.FlowID(i))
			}
			sink += s
			return n
		}, nil
	}},
	// One link-state event: uplink down (copy-on-write epoch swap), a
	// detoured lookup, uplink back up.
	{Name: "drv.topology.route_failover_ns", Unit: "ns", Ops: 40_000, Make: func() (func(int) int, func()) {
		rt := topology.NewRouteTable(0, []int{0, 1, 2, 3}, 8)
		return func(n int) int {
			for i := 0; i < n; i++ {
				s := i % 4
				rt.SetUplink(s, true)
				rt.Pick(i%8, pkt.FlowID(i))
				rt.SetUplink(s, false)
			}
			return n
		}, nil
	}},
	{Name: "drv.topology.build_leftright_us", Unit: "us", Ops: 16, Make: func() (func(int) int, func()) {
		return func(n int) int {
			for i := 0; i < n; i++ {
				topology.Build(sim.NewEngine(), topology.Baseline(redQueue))
			}
			return n
		}, nil
	}},
	{Name: "drv.topology.build_ctrlscale512_us", Unit: "us", Ops: 1, Make: func() (func(int) int, func()) {
		return func(n int) int {
			for i := 0; i < n; i++ {
				topology.Build(sim.NewEngine(), ctrlScale512(prioQueue))
			}
			return n
		}, nil
	}},

	// One 1000-segment DCTCP flow over two hosts and one switch, wired
	// as the runner wires it, per delivered data packet.
	{Name: "drv.transport.pkt_ns", Unit: "ns", AllocsAs: "drv.transport.pkt_allocs", Ops: 4000, Make: func() (func(int) int, func()) {
		const segments = 1000
		return func(n int) int {
			flows := (n + segments - 1) / segments
			for f := 0; f < flows; f++ {
				net := topology.Build(sim.NewEngine(), topology.SingleRack(2, redQueue))
				d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
				d.Schedule([]wl.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: segments * pkt.MSS}})
				if sum, err := d.Run(sim.Time(10 * sim.Second)); err != nil || sum.Completed != 1 {
					panic("bench: transport driver flow did not complete")
				}
			}
			return flows * segments
		}, nil
	}},

	{Name: "drv.arbitration.update_ns", Unit: "ns", Ops: 300_000, Make: func() (func(int) int, func()) {
		var now sim.Time
		a := arbitration.NewArbitrator(0, 10*netem.Gbps, 8, 40*netem.Mbps,
			300*sim.Microsecond, func() sim.Time { return now })
		const book = 64
		for i := 0; i < book; i++ {
			a.Update(pkt.FlowID(i+1), int64(i), 100*netem.Mbps)
		}
		return func(n int) int {
			for i := 0; i < n; i++ {
				now = now.Add(sim.Microsecond)
				a.Update(pkt.FlowID(i%book+1), int64(i), 100*netem.Mbps)
			}
			return n
		}, nil
	}},
	{Name: "drv.arbitration.refresh_ns", Unit: "ns", Ops: 16_000,
		Make: refreshDriver(topology.Baseline, 300*sim.Microsecond, arbitration.HierarchyParams{})},
	{Name: "drv.arbitration.tree_refresh_ns", Unit: "ns", Ops: 8000,
		Make: refreshDriver(ctrlScale512, 200*sim.Microsecond, arbitration.HierarchyParams{
			FanOut: experiments.CtrlScaleFanOut, TopShards: experiments.CtrlScaleTopShards})},
	{Name: "drv.arbitration.new_system_ctrlscale512_us", Unit: "us", Ops: 1, Make: func() (func(int) int, func()) {
		net := topology.Build(sim.NewEngine(), ctrlScale512(prioQueue))
		p := paseParams(net, 200*sim.Microsecond, arbitration.HierarchyParams{
			FanOut: experiments.CtrlScaleFanOut, TopShards: experiments.CtrlScaleTopShards})
		return func(n int) int {
			for i := 0; i < n; i++ {
				arbitration.NewSystem(net, p)
			}
			return n
		}, nil
	}},

	{Name: "drv.workload.stream_next_ns", Unit: "ns", Ops: 200_000, Make: func() (func(int) int, func()) {
		it := a2aSpec(1<<40).Stream(sim.NewRand(2), 1)
		return func(n int) int {
			for i := 0; i < n; i++ {
				it.Next()
			}
			return n
		}, nil
	}},
	{Name: "drv.workload.generate_ns", Unit: "ns", Ops: 100_000, Make: func() (func(int) int, func()) {
		return func(n int) int {
			return len(a2aSpec(n).Generate(sim.NewRand(2), 1))
		}, nil
	}},

	{Name: "drv.metrics.stream_add_ns", Unit: "ns", Ops: 400_000, Make: func() (func(int) int, func()) {
		c := metrics.NewStreamCollector(0)
		return func(n int) int {
			for i := 0; i < n; i++ {
				c.Add(metrics.FlowRecord{ID: uint64(i), Size: 100_000, Finish: sim.Time(1000 + i%100_000), Done: true})
			}
			return n
		}, nil
	}},
	{Name: "drv.metrics.collector_add_ns", Unit: "ns", Ops: 400_000, Make: func() (func(int) int, func()) {
		return func(n int) int {
			c := metrics.NewCollector()
			for i := 0; i < n; i++ {
				c.Add(metrics.FlowRecord{ID: uint64(i), Size: 100_000, Finish: sim.Time(1000 + i%100_000), Done: true})
			}
			return n
		}, nil
	}},

	{Name: "drv.obs.counter_inc_ns", Unit: "ns", Ops: 4_000_000, Make: func() (func(int) int, func()) {
		c := obs.NewRegistry().Counter("bench/counter")
		return func(n int) int {
			for i := 0; i < n; i++ {
				c.Inc()
			}
			return n
		}, nil
	}},
	{Name: "drv.obs.hist_observe_ns", Unit: "ns", Ops: 2_000_000, Make: func() (func(int) int, func()) {
		h := obs.NewRegistry().Histogram("bench/hist")
		return func(n int) int {
			for i := 0; i < n; i++ {
				h.Observe(int64(i))
			}
			return n
		}, nil
	}},

	{Name: "drv.trace.flow_record_ns", Unit: "ns", Ops: 400_000, Make: func() (func(int) int, func()) {
		l := &trace.FlowLog{Cap: 1 << 16}
		return func(n int) int {
			for i := 0; i < n; i++ {
				l.Add(trace.FlowEvent{At: sim.Time(i), Kind: "done", Flow: pkt.FlowID(i), Size: 100_000, FCT: 1000})
			}
			return n
		}, nil
	}},
}

// sink defeats dead-code elimination of pure driver loops.
var sink int
