package experiments

import (
	"fmt"
	"sort"
	"sync/atomic"

	"pase/internal/check"
	"pase/internal/faults"
	"pase/internal/metrics"
	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/pkt"
	"pase/internal/route"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/trace"
	"pase/internal/transport"
	"pase/internal/transport/d2tcp"
	"pase/internal/transport/dctcp"
	"pase/internal/transport/expresspass"
	"pase/internal/transport/l2dct"
	"pase/internal/transport/pfabric"
	"pase/internal/workload"
)

// shardFallback reports why a cfg.Shards > 1 request must run serially
// ("" when sharding is possible). PASE's arbitration and PDQ's switch
// state are fabric-synchronous — senders call into shared structures
// inline, with no link delay between shards to hide the latency — so
// those runs keep the serial engine. Traced runs shard (per-shard
// buffers, canonical merge), but spill-mode trace writers stream to a
// single writer and stay serial. A single-atom fabric has nothing to
// cut.
func shardFallback(cfg PointConfig) string {
	switch cfg.Protocol {
	case PASE:
		return "pase"
	case PDQ:
		return "pdq"
	}
	if cfg.Trace.spills() {
		return "trace_spill"
	}
	sp := scenario(cfg.Scenario)
	var part *topology.Partition
	if sp.buildLS != nil {
		part = topology.PartitionLeafSpine(*sp.buildLS, cfg.Shards)
	} else {
		part = topology.PartitionTree(sp.topo(nil), cfg.Shards)
	}
	if part.Shards < 2 {
		return "single_atom"
	}
	return ""
}

// bufSink buffers flow records on one shard; the coordinator drains it
// at barriers (streaming) or once at the end (stored). Summarize/CDF
// are never called on it.
type bufSink struct {
	recs []metrics.FlowRecord
}

func (b *bufSink) Add(r metrics.FlowRecord)         { b.recs = append(b.recs, r) }
func (b *bufSink) Summarize() metrics.Summary       { panic("experiments: bufSink.Summarize") }
func (b *bufSink) CDF(int) []metrics.CDFPoint       { panic("experiments: bufSink.CDF") }
func (b *bufSink) take() (out []metrics.FlowRecord) { out, b.recs = b.recs, b.recs[:0]; return }

// runPointSharded executes one point across cfg.Shards conservatively
// synchronized engine shards. The wiring mirrors runPointSerial
// step-for-step (the relative order of setup Schedule calls must match
// for digests to agree); the differences are per-shard registries,
// checkers, sinks and injectors, cross-shard port proxies on the cut
// links, and the window/tail run loop in place of Engine.Run.
func runPointSharded(cfg PointConfig) PointResult {
	sp := scenario(cfg.Scenario)
	numFlows := cfg.NumFlows
	if numFlows == 0 {
		numFlows = 2000
	}
	numQueues := cfg.PASE.NumQueues
	if numQueues == 0 {
		numQueues = PASENumQueues
	}

	// Partition the fabric before anything is built.
	var part *topology.Partition
	var treeCfg topology.Config
	var lsCfg topology.LeafSpineConfig
	var linkDelay sim.Duration
	if sp.buildLS != nil {
		lsCfg = *sp.buildLS
		part = topology.PartitionLeafSpine(lsCfg, cfg.Shards)
		linkDelay = lsCfg.LinkDelay
	} else {
		treeCfg = sp.topo(nil)
		part = topology.PartitionTree(treeCfg, cfg.Shards)
		linkDelay = treeCfg.LinkDelay
	}
	if part.Shards < 2 {
		return runPointSerial(cfg, "single_atom")
	}
	nsh := part.Shards

	// Per-shard registries plus one for the coordinator; obs
	// instruments are not concurrent-safe, so nothing is shared.
	// All stay nil without cfg.Obs (every obs call is nil-safe).
	regs := make([]*obs.Registry, nsh)
	var coordReg *obs.Registry
	if cfg.Obs {
		for i := range regs {
			regs[i] = obs.NewRegistry()
		}
		coordReg = obs.NewRegistry()
		coordReg.Counter("shard/shards").Add(int64(nsh))
		coordReg.Counter("shard/atoms").Add(int64(part.Atoms))
	}

	se, err := sim.NewShardedEngine(nsh, linkDelay)
	if err != nil {
		panic(err)
	}
	se.Instrument(coordReg)
	for i := 0; i < nsh; i++ {
		se.Shard(i).Instrument(regs[i])
	}

	var chks []*check.Checker
	if cfg.Check || check.Forced() {
		chks = make([]*check.Checker, nsh)
		for i := 0; i < nsh; i++ {
			e := se.Shard(i)
			chks[i] = check.New(func() int64 { return int64(e.Now()) })
			e.AttachCheck(chks[i])
		}
	}

	// Build the fabric: every node's ports live on its shard engine
	// and feed its shard's registry.
	engineOf := func(o netem.Node) *sim.Engine { return se.Shard(part.ShardOf(o)) }
	shardQF := make([]func(topology.QueueKind) netem.Queue, nsh)
	for i := 0; i < nsh; i++ {
		shardQF[i] = queueFactory(cfg.Protocol, sp, numQueues, regs[i])
	}
	queueFor := func(kind topology.QueueKind, o netem.Node) netem.Queue {
		return shardQF[part.ShardOf(o)](kind)
	}
	var net *topology.Network
	if sp.buildLS != nil {
		lsCfg.EngineOf = engineOf
		lsCfg.NewQueueFor = queueFor
		net = topology.BuildLeafSpine(se.Shard(0), lsCfg)
	} else {
		treeCfg.EngineOf = engineOf
		treeCfg.NewQueueFor = queueFor
		net = topology.Build(se.Shard(0), treeCfg)
	}
	bindCreditQueues(net)
	if chks != nil {
		for _, l := range net.Links {
			l.Port.AttachCheck(chks[part.ShardOf(l.From)])
		}
	}

	// Cut links become cross-shard proxies: the transmitting port
	// hands deliveries to the coordinator instead of scheduling on the
	// (foreign) destination engine. The minimum propagation delay over
	// the cut is the causality bound the lookahead relies on.
	cut, minDelay, anyCut := part.CutLinks(net)
	if !anyCut {
		panic("experiments: multi-shard partition with no cut links")
	}
	if minDelay < se.Lookahead() {
		panic(fmt.Sprintf(
			"experiments: cut link with propagation delay %v below the lookahead %v; "+
				"a sharded run needs every cross-shard link's delay to be at least the window width",
			minDelay, se.Lookahead()))
	}
	for _, l := range cut {
		src, dst := part.ShardOf(l.From), part.ShardOf(l.To)
		l.Port.SetRemote(func(at sim.Time, ctx *sim.Rank, k uint64, a sim.Action, arg any) {
			se.HandoffAction(src, dst, at, ctx, k, a, arg)
		})
	}

	// Fault injection: one injector per shard, each binding only the
	// links its shard transmits on. Per-link RNG streams make the draw
	// sequences identical to serial; crash timers arm on shard 0 only
	// so the faults/arb_* counters keep their serial totals.
	var injs []*faults.Injector
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(); err != nil {
			panic(err)
		}
		injs = make([]*faults.Injector, nsh)
		for i := 0; i < nsh; i++ {
			injs[i] = faults.NewInjector(se.Shard(i), cfg.Faults, cfg.Seed)
			injs[i].Instrument(regs[i])
			injs[i].OmitCrashes = i > 0
		}
		for _, l := range net.Links {
			injs[part.ShardOf(l.From)].BindPort(l.ID, l.Port)
		}
		for i := 0; i < nsh; i++ {
			injs[i].Arm()
		}
	}

	// Routing control loop, attached at the same setup position as the
	// serial path (after fault arming, before the driver) so its TE
	// epoch timers hold the same setup rank slots. Cross-shard table
	// updates ride the lookahead handoff with captured rank slots; the
	// same-shard branch consumes the matching child slot via the ranked
	// Schedule, so serial and sharded event orders agree.
	var routeRec func(rack int, ev trace.RouteEvent)
	var routeCtl *route.Controller
	if cfg.Route.Enabled() && net.IsLeafSpine() {
		shardOfRack := func(rack int) int { return part.ShardOf(net.ToRs[rack]) }
		routeCtl = route.Attach(route.Params{
			Net: net, Cfg: cfg.Route,
			EngineOf: func(rack int) *sim.Engine { return se.Shard(shardOfRack(rack)) },
			Deliver: func(from netem.Node, dstRack int, fn func()) {
				ss, ds := part.ShardOf(from), shardOfRack(dstRack)
				e := se.Shard(ss)
				if ss == ds {
					e.Schedule(linkDelay, fn)
					return
				}
				ctx, k := e.ChildSlot()
				se.Handoff(ss, ds, e.Now().Add(linkDelay), ctx, k, fn)
			},
			ChkOf: func(rack int) *check.Checker {
				if chks == nil {
					return nil
				}
				return chks[shardOfRack(rack)]
			},
			RegOf: func(rack int) *obs.Registry { return regs[shardOfRack(rack)] },
			Record: func(rack int, ev trace.RouteEvent) {
				if routeRec != nil {
					routeRec(rack, ev)
				}
			},
		})
		if injs != nil && routeCtl != nil {
			for i := range injs {
				injs[i].OnLinkState = routeCtl.LinkState
			}
		}
	}

	d := transport.NewDriver(net, nil)
	d.InstrumentEach(func(h pkt.NodeID) *obs.Registry { return regs[part.ShardOfID(h)] })
	if chks != nil {
		d.ChkOf = func(src pkt.NodeID) *check.Checker { return chks[part.ShardOfID(src)] }
	}
	if cfg.AbortAfter > 0 {
		for _, st := range d.Stacks {
			st.AbortAfter = cfg.AbortAfter
		}
	}

	var epSys *expresspass.System
	switch cfg.Protocol {
	case DCTCP:
		c := DefaultDCTCP()
		for _, st := range d.Stacks {
			st.NewControl = dctcp.New(c)
		}
	case D2TCP:
		c := DefaultD2TCP()
		for _, st := range d.Stacks {
			st.NewControl = d2tcp.New(c)
		}
	case L2DCT:
		c := DefaultL2DCT()
		for _, st := range d.Stacks {
			st.NewControl = l2dct.New(c)
		}
	case PFabric:
		c := DefaultPFabric()
		for _, st := range d.Stacks {
			st.NewControl = pfabric.New(c)
		}
	case ExpressPass:
		// ExpressPass shards cleanly: every credit engine is per-host
		// state driven by its host's shard engine, and Totals sums the
		// hosts in stack (host-ID) order regardless of shard count.
		c := DefaultExpressPass()
		c.Seed = cfg.Seed
		epSys = expresspass.Attach(d, c)
	default:
		panic(fmt.Sprintf("experiments: protocol %q cannot run sharded", cfg.Protocol))
	}

	// Per-shard record buffers replace the shared collector on the
	// stacks' data path; the coordinator owns the real sink.
	bufs := make([]*bufSink, nsh)
	for i := range bufs {
		bufs[i] = &bufSink{}
	}
	var sc *metrics.StreamCollector
	if cfg.Stream {
		sc = metrics.NewStreamCollector(cfg.SketchEps)
		d.UseSink(sc)
		d.MarkStreaming()
	}
	for _, st := range d.Stacks {
		st.Collector = bufs[part.ShardOf(st.Host)]
	}
	drainBufs := func(sink metrics.Sink) {
		for _, b := range bufs {
			for _, r := range b.take() {
				sink.Add(r)
			}
		}
	}

	// Tracing: one flow log, flight recorder and sampler per shard,
	// each touched only from its shard's goroutine, merged into the
	// canonical order after the run. Hooks fire on the flow's
	// source-host shard; the samplers are created last so their setup
	// events hold the same relative slots as the serial path's.
	var flogs []*trace.FlowLog
	var flogOf func(pkt.NodeID) *trace.FlowLog
	flogCap := traceCap(cfg.Trace.FlowLogCap, trace.DefaultFlowLogCap)
	if cfg.Trace.FlowLog {
		flogs = make([]*trace.FlowLog, nsh)
		for i := range flogs {
			flogs[i] = &trace.FlowLog{Cap: flogCap}
		}
		flogOf = func(src pkt.NodeID) *trace.FlowLog { return flogs[part.ShardOfID(src)] }
	}
	var rec *trace.Recorder
	var recOf func(pkt.NodeID) *trace.ShardRecorder
	if cfg.Trace.Spans {
		rec = trace.NewRecorder(trace.RecorderConfig{
			SampleN: cfg.Trace.SampleN, Seed: cfg.Seed, FlowCap: cfg.Trace.FlowCap,
		})
		srecs := make([]*trace.ShardRecorder, nsh)
		for i := range srecs {
			srecs[i] = rec.Shard(se.Shard(i))
		}
		rec.SetMeta(traceMeta(cfg, net))
		recOf = func(src pkt.NodeID) *trace.ShardRecorder { return srecs[part.ShardOfID(src)] }
		if routeCtl != nil {
			routeRec = func(rack int, ev trace.RouteEvent) {
				srecs[part.ShardOf(net.ToRs[rack])].Route(ev)
			}
		}
	}
	wireTraceHooks(cfg, d, flogOf, recOf)
	var samplers []*trace.Sampler
	sampCap := traceCap(cfg.Trace.SampleCap, trace.DefaultSampleCap)
	if cfg.Trace.QueueSample > 0 {
		samplers = shardSamplers(se, part, net, cfg.Trace.QueueSample, sampCap)
	}

	spec := workload.Spec{
		Pattern:         sp.pattern(net),
		Sizes:           sp.sizes,
		Load:            cfg.Load,
		Reference:       sp.reference,
		NumFlows:        numFlows,
		Fanin:           sp.fanin,
		BackgroundFlows: sp.bgFlows,
	}
	if sp.deadlines {
		spec.DeadlineMin = DeadlineLo
		spec.DeadlineMax = DeadlineHi
	}

	lookahead := sim.Duration(se.Lookahead())
	var summary metrics.Summary
	if cfg.Stream {
		runShardedStream(se, d, part, spec, cfg.Seed, sc, drainBufs)
		summary = sc.Summarize()
	} else {
		flows := spec.Generate(sim.NewRand(cfg.Seed+1), 1)
		fg := 0
		for _, f := range flows {
			if !f.Background {
				fg++
			}
		}
		d.Prime(fg)
		d.OnZero = se.RequestStop
		for _, f := range flows {
			f := f
			se.Shard(part.ShardOfID(f.Src)).At(f.Start, func() { d.StartArrival(f, true) })
		}
		lastArrival := flows[len(flows)-1].Start
		for {
			mp, ok := se.MinPendingTime()
			if !ok {
				break
			}
			end := mp.Add(lookahead)
			if end > lastArrival {
				break
			}
			se.StepWindow(end)
		}
		se.RunTail(lastArrival.Add(sim.Duration(10*sim.Second)), true)

		// Merge the per-shard buffers into a stored collector in a
		// canonical order (flow IDs are unique; every consumer of the
		// records is insertion-order independent).
		merged := metrics.NewCollector()
		var all []metrics.FlowRecord
		for _, b := range bufs {
			all = append(all, b.take()...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
		for _, r := range all {
			merged.Add(r)
		}
		d.Collector = merged
		d.Sink = merged
		d.FlushUnfinished()
		summary = merged.Summarize()
	}

	res := PointResult{
		Summary: summary,
		CDF:     d.Sink.CDF(200),
		Queues:  net.QueueStatsTotal(),
	}
	if !cfg.Stream {
		res.Records = d.Collector.Records()
	}
	host := net.HostQueueStats()
	if att := host.EnqueuedData + host.DroppedData; att > 0 {
		res.LossRate = float64(res.Queues.DroppedData) / float64(att)
	}
	if epSys != nil {
		res.CtrlMessages = epSys.Totals().Messages
	}
	if flogs != nil {
		res.FlowEvents, _ = trace.MergeFlowEvents(flogs, flogCap)
	}
	if samplers != nil {
		for _, s := range samplers {
			s.Stop()
		}
		res.QueueSamples, _ = trace.MergeQueueSamples(samplers, sampCap)
	}
	if rec != nil {
		rt := rec.Take()
		rt.Queue = res.QueueSamples
		res.Trace = rt
	}
	if chks != nil && sc != nil && sc.Completed() > 0 {
		sk := sc.Sketch()
		chks[0].SketchBounds("metrics/stream",
			int64(summary.P50), int64(summary.P99), sk.Min(), sk.Max())
	}
	var totalViolations int64
	if chks != nil {
		for _, l := range net.Links {
			if cq, ok := l.Port.Queue().(netem.Checkable); ok {
				cq.CheckConservation()
			}
		}
		for _, chk := range chks {
			totalViolations += chk.Total()
			res.CheckViolations = append(res.CheckViolations, chk.Violations()...)
		}
		res.Violations = totalViolations
	}
	if cfg.Obs {
		scrapeRun(coordReg, se.Shard(0), net, summary, nil, nil, epSys)
		scrapeTrace(coordReg, res.Trace)
		if chks != nil {
			coordReg.Counter("check/enabled").Inc()
			for _, chk := range chks {
				coordReg.Counter("check/violations").Add(chk.Total())
				for inv, n := range chk.ByInvariant() {
					coordReg.Counter("check/violations/" + inv).Add(n)
				}
			}
		}
		if sc != nil {
			sk := sc.Sketch()
			coordReg.Counter("metrics/sketch_adds").Add(sk.Count())
			coordReg.Counter("metrics/sketch_buckets_used").Add(int64(sk.BucketsUsed()))
			coordReg.Counter("metrics/stream_points").Inc()
		}
		snaps := make([]*obs.Snapshot, 0, nsh+1)
		for _, r := range regs {
			snaps = append(snaps, r.Snapshot())
		}
		snaps = append(snaps, coordReg.Snapshot())
		res.Obs = obs.MergeAll(snaps)
	}
	if chks != nil && !cfg.Check && totalViolations > 0 {
		sums := ""
		for _, chk := range chks {
			if chk.Total() > 0 {
				sums += chk.Summary()
			}
		}
		panic("experiments: PASE_CHECK sharded run failed: " + sums)
	}
	return res
}

// shardSamplers builds one queue sampler per shard over the ports that
// shard clocks, carrying the run-wide port indices so the merged
// streams keep the serial (At, Idx) order. Samplers are created in
// shard order so their setup events take deterministic rank slots.
func shardSamplers(se *sim.ShardedEngine, part *topology.Partition, net *topology.Network,
	every sim.Duration, cap int) []*trace.Sampler {

	all := trace.AllPorts(net)
	nsh := part.Shards
	ports := make([][]*netem.Port, nsh)
	idx := make([][]int, nsh)
	for i, p := range all {
		sh := part.ShardOf(p.Owner())
		ports[sh] = append(ports[sh], p)
		idx[sh] = append(idx[sh], i)
	}
	out := make([]*trace.Sampler, nsh)
	for i := 0; i < nsh; i++ {
		out[i] = trace.NewSampler(se.Shard(i), every, ports[i])
		out[i].Idx = idx[i]
		out[i].Cap = cap
	}
	return out
}

// runShardedStream drives a streaming workload across the shards: the
// coordinator pulls the arrival iterator between windows and injects
// each flow start as a ranked event on its source shard, reproducing
// ScheduleStream's serial event order exactly. Each batch of
// same-timestamp arrivals gets one coordinator rank node standing for
// the serial onArrival event; flow j of an m-flow batch takes child
// slot j for j < m-1, the next batch's chain node (or the drain
// watchdog) takes slot m-1, and the last flow takes slot m — mirroring
// onArrival's call order (start all but the last flow, schedule the
// next arrival or the watchdog, start the last flow).
func runShardedStream(se *sim.ShardedEngine, d *transport.Driver, part *topology.Partition,
	spec workload.Spec, seed uint64, sc *metrics.StreamCollector, drainBufs func(metrics.Sink)) {

	it := spec.Stream(sim.NewRand(seed+1), 1)
	// The serial path's one setup Schedule (the first AtHead).
	slot0 := se.SetupSlot()

	pending, hasPending := it.Next()
	if !hasPending {
		panic(fmt.Errorf("transport: no foreground flows scheduled"))
	}

	var drained atomic.Bool
	d.OnZero = func() {
		if drained.Load() {
			se.RequestStop()
		}
	}
	lookahead := sim.Duration(se.Lookahead())
	d.DropRx = func(src, dst pkt.NodeID, flow pkt.FlowID) {
		ss, ds := part.ShardOfID(src), part.ShardOfID(dst)
		if ss == ds {
			d.Stacks[dst].DropReceiver(flow)
			return
		}
		e := se.Shard(ss)
		ctx, k := e.ChildSlot()
		se.Handoff(ss, ds, e.Now().Add(lookahead), ctx, k, func() {
			d.Stacks[dst].DropReceiver(flow)
		})
	}

	var prevCtx *sim.Rank
	prevK := slot0
	var lastArrival sim.Time
	allInjected := false
	iterDone := false
	var batch []workload.FlowSpec

	injectFlow := func(t sim.Time, ctx *sim.Rank, k uint64, f workload.FlowSpec) {
		if !f.Background {
			d.Prime(1)
		}
		se.Shard(part.ShardOfID(f.Src)).InjectAt(t, true, ctx, k, func() {
			d.StartArrival(f, true)
		})
	}

	injectBefore := func(end sim.Time) {
		for hasPending && pending.Start < end {
			t := pending.Start
			batch = append(batch[:0], pending)
			hasPending = false
			for {
				f, ok := it.Next()
				if !ok {
					iterDone = true
					break
				}
				if f.Start == t {
					batch = append(batch, f)
					continue
				}
				pending, hasPending = f, true
				break
			}
			r := se.NewCoordRank(t, true, prevCtx, prevK)
			m := len(batch)
			for j := 0; j < m-1; j++ {
				injectFlow(t, r, uint64(j), batch[j])
			}
			last := batch[m-1]
			lastShard := part.ShardOfID(last.Src)
			if iterDone {
				se.Shard(lastShard).InjectAt(t.Add(transport.StreamGrace), false, r, uint64(m-1), se.RequestStop)
				injectFlow(t, r, uint64(m), last)
				lastArrival = t
				allInjected = true
				drained.Store(true)
			} else {
				prevCtx, prevK = r, uint64(m-1)
				injectFlow(t, r, uint64(m), last)
			}
		}
	}

	for {
		cand, have := se.MinPendingTime()
		if hasPending && (!have || pending.Start < cand) {
			cand, have = pending.Start, true
		}
		if !have {
			break
		}
		end := cand.Add(lookahead)
		if allInjected && end > lastArrival {
			break
		}
		injectBefore(end)
		se.StepWindow(end)
		drainBufs(sc)
	}
	se.RunTail(0, false)
	drainBufs(sc)
	d.FlushUnfinished()
	drainBufs(sc)
}
