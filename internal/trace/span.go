package trace

import (
	"bufio"
	"cmp"
	"io"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/pool"
	"pase/internal/sim"
)

// The recorder: one capture path for every track.
//
// It captures where a flow's time went — waiting for the control
// plane, transmitting on an assigned priority queue — plus the
// control-plane exchanges, the routing updates, the flows' lifecycle
// events and the queues' occupancy, on the simulated clock. It is built
// to the same contract as the rest of the run machinery:
//
//   - Deterministic. A run traced at any GOMAXPROCS, stored or
//     streamed, produces byte-identical output: every track comes out
//     in its canonical order — flow events by (At, Flow, kind), flow
//     traces by (End, Flow), control spans by (Start, Flow, side,
//     level), queue samples by (At, Idx) — so records of one instant
//     come out in one order however their events interleaved.
//   - Bounded. The two flow tracks are write-only: flow events stream
//     out as TSV (RecorderConfig.EventWriter) and committed flow traces
//     as Perfetto JSON (SpanWriter) while the run goes, each flushed one
//     same-instant group at a time. Live flows cost O(in-flight): a
//     flow's spans accumulate only while it is open, and at completion
//     the trace is written or dropped, then recycled. Per-flow span/mark
//     counts are capped, and the retained tracks are newest-N rings.
//   - Production-shaped. Seed-driven sampling keeps 1 in N flows; a
//     flow that misbehaved (retransmissions, timeouts, control-plane
//     fallback, abort) is always kept regardless of the sample draw,
//     so the interesting traces survive aggressive sampling.

// SpanKind classifies one phase of a flow's lifetime.
type SpanKind uint8

const (
	// SpanWait: the flow is held, waiting for a control-plane
	// allocation (PASE's arbitration, PDQ's first rate) or, in
	// ExpressPass, its first credit.
	SpanWait SpanKind = iota
	// SpanXfer: the flow is transmitting on priority queue Prio — one
	// span per contiguous epoch at that priority.
	SpanXfer
)

// MarkKind classifies an instantaneous flow annotation.
type MarkKind uint8

const (
	// MarkGrant: the first arbitration response was adopted.
	MarkGrant MarkKind = iota
	// MarkRetx: a data segment was retransmitted (Arg = sequence).
	MarkRetx
	// MarkTimeout: the retransmission timer fired.
	MarkTimeout
	// MarkFallback: the endpoint gave up on the control plane and fell
	// back to bottom-queue DCTCP mode.
	MarkFallback
	// MarkResync: the endpoint re-adopted a fresh allocation after a
	// fallback (control-plane recovery).
	MarkResync
	// MarkAbort: the flow was aborted before completing.
	MarkAbort
)

// String names the mark for export.
func (k MarkKind) String() string {
	switch k {
	case MarkGrant:
		return "grant"
	case MarkRetx:
		return "retx"
	case MarkTimeout:
		return "timeout"
	case MarkFallback:
		return "fallback"
	case MarkResync:
		return "resync"
	case MarkAbort:
		return "abort"
	}
	return "mark?"
}

// flags reports whether the mark forces the flow to be kept regardless
// of the sampling draw. Grants are the happy path; everything else is
// a misbehavior worth keeping.
func (k MarkKind) flags() bool { return k != MarkGrant }

// FlowSpan is one phase of a flow: [Start, End) spent either waiting
// for control or transmitting at priority Prio.
type FlowSpan struct {
	Start sim.Time
	End   sim.Time
	Kind  SpanKind
	Prio  int
}

// Mark is one instantaneous annotation on a flow's timeline.
type Mark struct {
	At   sim.Time
	Kind MarkKind
	Arg  int64
}

// FlowTrace is the recorded lifecycle of one flow.
type FlowTrace struct {
	Flow    pkt.FlowID
	Src     pkt.NodeID
	Dst     pkt.NodeID
	Size    int64
	Start   sim.Time
	End     sim.Time
	Aborted bool
	// Flagged marks a misbehaving flow (retx/timeout/fallback/resync/
	// abort) — kept even when the sampling draw would drop it.
	Flagged bool
	Spans   []FlowSpan
	Marks   []Mark
	// Truncated counts spans/marks dropped beyond the per-flow cap.
	Truncated int64
}

// RouteKind classifies one routing-control-plane event.
type RouteKind uint8

const (
	// RouteLinkDown: a link failure reached a leaf's route table and
	// the flows on it detoured.
	RouteLinkDown RouteKind = iota
	// RouteLinkUp: the failed link recovered and its flows returned.
	RouteLinkUp
)

// String names the route event kind for export.
func (k RouteKind) String() string {
	switch k {
	case RouteLinkDown:
		return "link_down"
	case RouteLinkUp:
		return "link_up"
	}
	return "route?"
}

// RouteEvent is one routing-control update applied to a leaf's route
// table: a reroute around a failed link, or its recovery.
type RouteEvent struct {
	At   sim.Time
	Rack int // the leaf whose table changed
	Kind RouteKind
	// Spine is the failed or recovered spine.
	Spine int
}

// CtrlOutcome classifies one arbitration half-exchange.
type CtrlOutcome uint8

const (
	// CtrlOK: the request climbed the hierarchy and a response was
	// delivered after the modelled latency.
	CtrlOK CtrlOutcome = iota
	// CtrlReqDropped: the fault injector dropped the request leg.
	CtrlReqDropped
	// CtrlRespDropped: the fault injector dropped the response leg.
	CtrlRespDropped
	// CtrlDead: the walk hit a crashed arbitrator and died there.
	CtrlDead
)

// String names the outcome for export.
func (o CtrlOutcome) String() string {
	switch o {
	case CtrlOK:
		return "ok"
	case CtrlReqDropped:
		return "req_dropped"
	case CtrlRespDropped:
		return "resp_dropped"
	case CtrlDead:
		return "dead_arb"
	}
	return "outcome?"
}

// CtrlSpan is one control-plane exchange through the arbitrator
// hierarchy: the request leg up, per-level aggregation, and the
// response leg back down, modelled as Latency after Start.
type CtrlSpan struct {
	Flow pkt.FlowID
	// SrcSide distinguishes the source-half request from the
	// destination-half request of the same refresh.
	SrcSide bool
	// Level is how many hierarchy levels past the host-local
	// arbitrator the request climbed (0 = resolved locally).
	Level int
	Start sim.Time
	// Latency is the modelled round-trip (0 when the exchange died).
	Latency sim.Duration
	Outcome CtrlOutcome
}

// Meta describes the run a trace came from; it rides along in the
// Perfetto header so analysis tools can reconstruct rates.
type Meta struct {
	Proto    string
	Scenario string
	// NICBps is the host NIC line rate in bits/s — the denominator of
	// the critical-path serialization term.
	NICBps  int64
	SampleN int
	Seed    uint64
}

// TraceStats summarizes what the recorder wrote, kept and shed.
type TraceStats struct {
	FlowEvents      int64 // flow events written
	FlowsStarted    int64
	FlowsFinal      int64 // flow traces written
	FlowsSampledOut int64 // completed clean but lost the sample draw
	FlowsUnfinished int64 // still open when the run ended
	SpansTruncated  int64 // spans/marks over the per-flow cap (kept flows)
	CtrlTotal       int64
	CtrlEvicted     int64
	SamplesEvicted  int64 // queue samples pushed out by SampleCap
}

// Recorder defaults: MaxPerFlow bounds one flow's spans and marks
// (each), and each retained track has a newest-N cap — DefaultCtrlCap
// for control spans, DefaultRouteCap for route events and
// DefaultSampleCap for queue samples.
const (
	DefaultMaxPerFlow = 256
	DefaultCtrlCap    = 1 << 18
	// DefaultRouteCap bounds retained routing-control events; route
	// updates are rare (one per link failure or recovery), so the ring
	// almost never wraps.
	DefaultRouteCap  = 1 << 16
	DefaultSampleCap = 1 << 18
)

// RecorderConfig parameterizes a Recorder. Zero caps take the defaults
// above; SampleN <= 1 keeps every flow.
type RecorderConfig struct {
	// Meta describes the run; the Perfetto header carries it.
	Meta Meta
	// SampleN keeps 1 in N flow traces (seed-driven, per-flow
	// deterministic). Flagged flows are always kept.
	SampleN int
	// Seed drives the sampling hash; use the run seed so re-runs trace
	// the same flows.
	Seed uint64
	// EventWriter turns on the flow-event track — every flow's start
	// and its done or abort — written to it as canonical TSV.
	// SpanWriter turns on the span tracks — flow spans and marks,
	// control spans and route events — and receives them as Perfetto
	// JSON. A track left off costs nothing; the queue track is on once
	// SampleQueues runs.
	EventWriter io.Writer
	SpanWriter  io.Writer
	MaxPerFlow  int
	SampleCap   int
}

// Recorder records one run's tracks on one engine's clock. Its
// recording methods are nil-safe no-ops, so call sites can stay
// unconditional when tracing is off.
type Recorder struct {
	cfg RecorderConfig
	eng *sim.Engine

	// The retained tracks' rings.
	ctrl  Ring[CtrlSpan]
	route Ring[RouteEvent]
	queue Ring[QueueSample]

	// Open flow traces and recycled ones; both stay empty, and live
	// nil, without the span tracks.
	live map[pkt.FlowID]*FlowTrace
	free pool.List[FlowTrace]

	// The flow tracks' streams, nil when off, and the flow events and
	// committed traces of the current instant, flushed in canonical
	// order once the clock moves on.
	eventW *bufio.Writer
	spanW  *perfettoStream
	events *group[FlowEvent]
	flows  *group[*FlowTrace]
	// flowSum folds every written flow trace, in canonical order, into
	// the trace digest.
	flowSum digest

	stats TraceStats
}

// NewRecorder builds a recorder on eng's clock, applying config
// defaults. Each flow-track stream gets its header now.
func NewRecorder(eng *sim.Engine, cfg RecorderConfig) *Recorder {
	cfg.MaxPerFlow = cmp.Or(cfg.MaxPerFlow, DefaultMaxPerFlow)
	cfg.SampleCap = cmp.Or(cfg.SampleCap, DefaultSampleCap)
	cfg.Meta.SampleN, cfg.Meta.Seed = cfg.SampleN, cfg.Seed
	r := &Recorder{
		cfg: cfg, eng: eng,
		ctrl:    Ring[CtrlSpan]{Cap: DefaultCtrlCap},
		route:   Ring[RouteEvent]{Cap: DefaultRouteCap},
		queue:   Ring[QueueSample]{Cap: cfg.SampleCap},
		flowSum: digestBasis,
	}
	if cfg.EventWriter != nil {
		r.eventW = bufio.NewWriter(cfg.EventWriter)
		writeFlowHeader(r.eventW)
		r.events = &group[FlowEvent]{at: eventAt, less: eventLess, flush: func(es []FlowEvent) {
			for _, e := range es {
				writeFlowEvent(r.eventW, e)
			}
			r.stats.FlowEvents += int64(len(es))
		}}
	}
	if cfg.SpanWriter != nil {
		r.live = make(map[pkt.FlowID]*FlowTrace)
		r.free = pool.New[FlowTrace](1, 1024)
		r.spanW = newPerfettoStream(cfg.SpanWriter, cfg.Meta)
		r.flows = &group[*FlowTrace]{at: traceEnd, less: traceLess, flush: func(fts []*FlowTrace) {
			r.spanW.Flows(fts)
			for _, ft := range fts {
				r.flowSum.flow(ft)
				r.stats.SpansTruncated += ft.Truncated
				r.free.Put(ft)
			}
			r.stats.FlowsFinal += int64(len(fts))
		}}
	}
	return r
}

// sampleHash is a SplitMix64 finalizer over (seed, flow): a cheap,
// well-mixed per-flow coin.
func sampleHash(seed uint64, f pkt.FlowID) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(uint64(f)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Sampled reports whether the sampling draw keeps flow f.
func (r *Recorder) Sampled(f pkt.FlowID) bool {
	if r.cfg.SampleN <= 1 {
		return true
	}
	return sampleHash(r.cfg.Seed, f)%uint64(r.cfg.SampleN) == 0
}

// event records e on the flow-event track, stamped now as kind.
func (r *Recorder) event(e FlowEvent, kind string) {
	if r.events != nil {
		e.At, e.Kind = r.eng.Now(), kind
		r.events.add(e)
	}
}

// FlowArrive records a flow's arrival: e (Flow, Src, Dst, Size) as its
// "start" event, and the opening of its trace. held reports whether the
// flow opens waiting, until Epoch or FirstSend ends the wait; otherwise
// it is transmitting immediately at prio.
func (r *Recorder) FlowArrive(e FlowEvent, prio int, held bool) {
	if r == nil {
		return
	}
	r.event(e, "start")
	if r.live == nil {
		return
	}
	r.stats.FlowsStarted++
	now := r.eng.Now()
	ft := r.free.Take()
	*ft = FlowTrace{Flow: e.Flow, Src: e.Src, Dst: e.Dst, Size: e.Size, Start: now, Spans: ft.Spans[:0], Marks: ft.Marks[:0]}
	kind := SpanXfer
	if held {
		kind = SpanWait
	}
	ft.Spans = append(ft.Spans, FlowSpan{Start: now, End: now, Kind: kind, Prio: prio})
	r.live[e.Flow] = ft
}

// Epoch records a transmission-epoch transition: the current phase
// ends now and a new transmit span opens at prio. A transition into
// the phase already running is a no-op.
func (r *Recorder) Epoch(f pkt.FlowID, prio int) {
	if r != nil {
		r.epoch(f, prio)
	}
}

// epoch is Epoch's body, kept out of line so that Epoch inlines and an
// unrecorded run pays one nil check per queue switch.
func (r *Recorder) epoch(f pkt.FlowID, prio int) {
	ft := r.live[f]
	if ft == nil {
		return
	}
	if n := len(ft.Spans); n > 0 {
		cur := &ft.Spans[n-1]
		if cur.Kind == SpanXfer && cur.Prio == prio {
			return
		}
		cur.End = r.eng.Now()
	}
	if len(ft.Spans) >= r.cfg.MaxPerFlow {
		ft.Truncated++
		return
	}
	now := r.eng.Now()
	ft.Spans = append(ft.Spans, FlowSpan{Start: now, End: now, Kind: SpanXfer, Prio: prio})
}

// FirstSend records a flow's first data packet: a flow still waiting
// leaves its wait span for a transmit span at prio.
func (r *Recorder) FirstSend(f pkt.FlowID, prio int) {
	if r != nil {
		r.firstSend(f, prio)
	}
}

// firstSend is FirstSend's body, kept out of line as epoch is.
func (r *Recorder) firstSend(f pkt.FlowID, prio int) {
	if ft := r.live[f]; ft != nil && ft.Spans[len(ft.Spans)-1].Kind == SpanWait {
		r.epoch(f, prio)
	}
}

// Mark annotates the flow's timeline at the current instant. Marks
// other than grants flag the flow as always-kept.
func (r *Recorder) Mark(f pkt.FlowID, kind MarkKind, arg int64) {
	if r == nil {
		return
	}
	ft := r.live[f]
	if ft == nil {
		return
	}
	if kind.flags() {
		ft.Flagged = true
	}
	if len(ft.Marks) >= r.cfg.MaxPerFlow {
		ft.Truncated++
		return
	}
	ft.Marks = append(ft.Marks, Mark{At: r.eng.Now(), Kind: kind, Arg: arg})
}

// FlowEnd records a flow's end: e (Flow, Src, Dst, Size, and FCT
// unless aborted) as its "done" or "abort" event, and the closing of
// its trace, which is written or discarded: flagged flows and flows
// passing the sample draw are kept, the rest recycle.
func (r *Recorder) FlowEnd(e FlowEvent, aborted bool) {
	if r == nil {
		return
	}
	kind := "done"
	if aborted {
		kind = "abort"
	}
	r.event(e, kind)
	f := e.Flow
	ft := r.live[f]
	if ft == nil {
		return
	}
	delete(r.live, f)
	now := r.eng.Now()
	ft.End = now
	if n := len(ft.Spans); n > 0 {
		ft.Spans[n-1].End = now
	}
	if aborted {
		ft.Aborted = true
		ft.Flagged = true
		if len(ft.Marks) < r.cfg.MaxPerFlow {
			ft.Marks = append(ft.Marks, Mark{At: now, Kind: MarkAbort})
		} else {
			ft.Truncated++
		}
	}
	if !ft.Flagged && !r.Sampled(f) {
		r.stats.FlowsSampledOut++
		r.free.Put(ft)
		return
	}
	r.flows.add(ft)
}

// traceLess is the canonical (End, Flow) order of flow traces.
func traceLess(a, b *FlowTrace) bool {
	if a.End != b.End {
		return a.End < b.End
	}
	return a.Flow < b.Flow
}

func traceEnd(ft *FlowTrace) sim.Time { return ft.End }

// Ctrl records one control-plane exchange on the span tracks.
func (r *Recorder) Ctrl(cs CtrlSpan) {
	if r == nil || r.spanW == nil {
		return
	}
	r.ctrl.Add(cs)
}

// ctrlLess is the canonical (Start, Flow, side, level) order of control
// spans, source halves first.
func ctrlLess(a, b CtrlSpan) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Flow != b.Flow {
		return a.Flow < b.Flow
	}
	if a.SrcSide != b.SrcSide {
		return a.SrcSide
	}
	return a.Level < b.Level
}

// Route records one routing-control update on the span tracks. A run
// that never reroutes records nothing and its trace bytes stay
// identical to a build without routing control.
func (r *Recorder) Route(ev RouteEvent) {
	if r == nil || r.spanW == nil {
		return
	}
	r.route.Add(ev)
}

// routeLess is the canonical (At, Rack, Kind, Spine) order of route
// events.
func routeLess(a, b RouteEvent) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Rack != b.Rack {
		return a.Rack < b.Rack
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Spine < b.Spine
}

// SampleQueues starts the queue track: every interval it records the
// occupancy of each non-empty port in ports (idle queues are implied,
// which keeps the track sparse); a sample's Idx is its port's index in
// ports. Ticks run at the head of their instant (AtHead), so a sample
// reads the queue state at the start of the tick time regardless of how
// same-instant packet events interleave.
func (r *Recorder) SampleQueues(every sim.Duration, ports []*netem.Port) {
	if every <= 0 {
		panic("trace: non-positive sampling interval")
	}
	// names[i] is ports[i]'s label, formatted at its first sample.
	names := make([]string, len(ports))
	var tick func()
	tick = func() {
		now := r.eng.Now()
		for i, p := range ports {
			q := p.Queue()
			if q.Len() == 0 {
				continue
			}
			if names[i] == "" {
				names[i] = p.Name()
			}
			r.queue.Add(QueueSample{At: now, Port: names[i], Idx: i, Len: q.Len(), Bytes: q.Bytes()})
		}
		r.eng.AtHead(now.Add(every), tick)
	}
	r.eng.AtHead(r.eng.Now().Add(every), tick)
}

// RunTrace is what a run's recording retains, in canonical order: Ctrl
// by (Start, Flow, side, level), Queue by (At, Idx), Route by (At,
// Rack, Kind, Spine). The order — and therefore the exported
// bytes — is identical at every parallelism (up to the capacity caps;
// see Stats for what was shed). The flow tracks went to their writers
// as the run went.
type RunTrace struct {
	Meta  Meta
	Ctrl  []CtrlSpan
	Queue []QueueSample
	// Route is empty unless the run rerouted.
	Route []RouteEvent
	Stats TraceStats
	// flowSum is the digest of the written flow traces.
	flowSum digest
}

// Take ends the recording, once, after the run. It flushes the last
// instant's flow groups and finishes the streams — the flow-event TSV
// flushes, and the Perfetto stream gets the control spans, queue
// samples and route events after its flow sections and closes — and
// returns the retained tracks with the streams' first write error.
func (r *Recorder) Take() (*RunTrace, error) {
	var err error
	if r.events != nil {
		r.events.done()
		err = r.eventW.Flush()
	}
	if r.flows != nil {
		r.flows.done()
	}
	rt := &RunTrace{Meta: r.cfg.Meta, Stats: r.stats, flowSum: r.flowSum}
	st := &rt.Stats
	rt.Ctrl, st.CtrlEvicted = canonical(&r.ctrl, ctrlLess)
	rt.Route, _ = canonical(&r.route, routeLess)
	rt.Queue, st.SamplesEvicted = canonical(&r.queue, sampleLess)
	st.FlowsUnfinished = int64(len(r.live))
	st.CtrlTotal = r.ctrl.Added()
	if r.spanW != nil {
		err = cmp.Or(err, r.spanW.Finish(rt.Ctrl, rt.Queue, rt.Route))
	}
	return rt, err
}

// digest is an FNV-1a hash folded over 64-bit words: the trace digest.
type digest uint64

const digestBasis digest = 1469598103934665603

func (h *digest) mix(v int64) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		*h ^= digest(u & 0xff)
		*h *= 1099511628211
		u >>= 8
	}
}

// flow folds one written flow trace into h.
func (h *digest) flow(ft *FlowTrace) {
	h.mix(int64(ft.Flow))
	h.mix(int64(ft.Start))
	h.mix(int64(ft.End))
	h.mix(ft.Size)
	b := int64(0)
	if ft.Flagged {
		b = 1
	}
	if ft.Aborted {
		b |= 2
	}
	h.mix(b)
	for _, sp := range ft.Spans {
		h.mix(int64(sp.Start))
		h.mix(int64(sp.End))
		h.mix(int64(sp.Kind))
		h.mix(int64(sp.Prio))
	}
	for _, m := range ft.Marks {
		h.mix(int64(m.At))
		h.mix(int64(m.Kind))
		h.mix(m.Arg)
	}
}

// Digest folds the trace's canonical content — the written flow traces
// in (End, Flow) order, then the retained tracks — into one FNV-1a
// hash: the cheap equality pin for determinism tests.
func (rt *RunTrace) Digest() uint64 {
	h := rt.flowSum
	for _, c := range rt.Ctrl {
		h.mix(int64(c.Flow))
		h.mix(int64(c.Start))
		h.mix(int64(c.Latency))
		h.mix(int64(c.Level))
		h.mix(int64(c.Outcome))
	}
	for _, q := range rt.Queue {
		h.mix(int64(q.At))
		h.mix(int64(q.Idx))
		h.mix(int64(q.Len))
		h.mix(q.Bytes)
	}
	// Route events mix last: a run with none keeps the digest it had
	// before routing control existed.
	for _, r := range rt.Route {
		h.mix(int64(r.At))
		h.mix(int64(r.Rack))
		h.mix(int64(r.Kind))
		h.mix(int64(r.Spine))
	}
	return uint64(h)
}
