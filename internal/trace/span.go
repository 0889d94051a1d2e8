package trace

import (
	"sort"

	"pase/internal/pkt"
	"pase/internal/pool"
	"pase/internal/sim"
)

// Span-based flight recorder (trace v2).
//
// The recorder captures where a flow's time went — waiting for the
// control plane, transmitting on an assigned priority queue — plus the
// control-plane exchanges themselves, as spans on the simulated clock.
// It is built to the same contract as the rest of the run machinery:
//
//   - Deterministic. A run traced at any shard count or GOMAXPROCS
//     produces byte-identical output: each shard records into its own
//     buffers (no cross-goroutine state), and Take merges them in a
//     canonical order — flow traces by (End, Flow), control spans by
//     (Start, Flow, side, level) — that both the serial engine and the
//     sharded engine reproduce exactly.
//   - Bounded. Live flows cost O(in-flight): a flow's spans accumulate
//     only while it is open, and at completion the trace is either
//     committed to a fixed-capacity ring (evicting the oldest) or
//     recycled. Per-flow span/mark counts are capped too.
//   - Production-shaped. Seed-driven sampling keeps 1 in N flows; a
//     flow that misbehaved (retransmissions, timeouts, control-plane
//     fallback, abort) is always kept regardless of the sample draw,
//     so the interesting traces survive aggressive sampling.
//
// In spill mode (SpillTo) committed traces stream straight into a
// PerfettoStream in completion order instead of being retained — the
// bounded-memory path for serial streaming runs. The stream flushes
// completion-time tie groups sorted by flow ID, so its byte output
// matches the buffered path's canonical (End, Flow) order exactly
// (as long as the buffered run stays under FlowCap).

// SpanKind classifies one phase of a flow's lifetime.
type SpanKind uint8

const (
	// SpanWait: the flow is held, waiting for a control-plane
	// allocation (PASE's arbitration request is in flight).
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

// WaitCtrl sums the time the flow spent waiting for the control plane.
func (ft *FlowTrace) WaitCtrl() sim.Duration {
	var d sim.Duration
	for _, s := range ft.Spans {
		if s.Kind == SpanWait {
			d += s.End.Sub(s.Start)
		}
	}
	return d
}

// Xfer sums the time the flow spent in transmission epochs.
func (ft *FlowTrace) Xfer() sim.Duration {
	var d sim.Duration
	for _, s := range ft.Spans {
		if s.Kind == SpanXfer {
			d += s.End.Sub(s.Start)
		}
	}
	return d
}

// RouteKind classifies one routing-control-plane event.
type RouteKind uint8

const (
	// RouteLinkDown: a link failure reached a leaf's route table and
	// the affected buckets detoured (Arg = buckets rerouted).
	RouteLinkDown RouteKind = iota
	// RouteLinkUp: the failed link recovered and its buckets returned
	// (Arg = buckets restored).
	RouteLinkUp
	// RouteTEMove: a TE epoch shifted one bucket off a hot spine
	// (Spine = source, Arg = target spine).
	RouteTEMove
)

// String names the route event kind for export.
func (k RouteKind) String() string {
	switch k {
	case RouteLinkDown:
		return "link_down"
	case RouteLinkUp:
		return "link_up"
	case RouteTEMove:
		return "te_move"
	}
	return "route?"
}

// RouteEvent is one routing-control update applied to a leaf's route
// table — a reroute around a failure or a TE bucket move.
type RouteEvent struct {
	At   sim.Time
	Rack int // the leaf whose table changed
	Kind RouteKind
	// Spine is the subject spine (the failed/recovered one, or the
	// source of a TE move).
	Spine int
	// Arg carries kind-specific detail: buckets moved for link events,
	// the target spine for TE moves.
	Arg int64
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

// TraceStats summarizes what the recorder kept and shed. Every field
// is derived from shard-count-invariant quantities, so a traced run
// reports identical stats at any shard count.
type TraceStats struct {
	FlowsStarted    int64
	FlowsFinal      int64 // traces in the output
	FlowsSampledOut int64 // completed clean but lost the sample draw
	FlowsEvicted    int64 // committed but pushed out by FlowCap
	FlowsUnfinished int64 // still open when the run ended
	SpansTruncated  int64 // spans/marks over the per-flow cap (kept flows)
	CtrlTotal       int64
	CtrlEvicted     int64
}

// Recorder defaults. FlowCap bounds retained flow traces run-wide,
// MaxPerFlow bounds one flow's spans and marks (each), CtrlCap bounds
// retained control spans.
const (
	DefaultFlowCap    = 1 << 17
	DefaultMaxPerFlow = 256
	DefaultCtrlCap    = 1 << 18
	// DefaultRouteCap bounds retained routing-control events; route
	// updates are rare (failures and one TE move per epoch per leaf),
	// so the ring almost never wraps.
	DefaultRouteCap = 1 << 16
)

// RecorderConfig parameterizes a Recorder. Zero values take the
// defaults above; SampleN <= 1 keeps every flow.
type RecorderConfig struct {
	// SampleN keeps 1 in N flows (seed-driven, per-flow deterministic).
	// Flagged flows are always kept.
	SampleN int
	// Seed drives the sampling hash; use the run seed so re-runs trace
	// the same flows.
	Seed       uint64
	FlowCap    int
	MaxPerFlow int
	CtrlCap    int
	RouteCap   int
}

// Recorder owns a run's flight recording: one ShardRecorder per engine
// shard (a serial run has exactly one) and the merge that produces the
// canonical RunTrace.
type Recorder struct {
	cfg    RecorderConfig
	shards []*ShardRecorder
	meta   Meta
	spill  *PerfettoStream
}

// NewRecorder builds a recorder, applying config defaults.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.FlowCap <= 0 {
		cfg.FlowCap = DefaultFlowCap
	}
	if cfg.MaxPerFlow <= 0 {
		cfg.MaxPerFlow = DefaultMaxPerFlow
	}
	if cfg.CtrlCap <= 0 {
		cfg.CtrlCap = DefaultCtrlCap
	}
	if cfg.RouteCap <= 0 {
		cfg.RouteCap = DefaultRouteCap
	}
	return &Recorder{cfg: cfg}
}

// SetMeta records the run description; in spill mode it also opens the
// output stream (the Perfetto header carries the meta, so it must be
// known before the first flow commits).
func (r *Recorder) SetMeta(m Meta) {
	m.SampleN = r.cfg.SampleN
	m.Seed = r.cfg.Seed
	r.meta = m
	if r.spill != nil {
		r.spill.Begin(m)
	}
}

// SpillTo switches the recorder into spill mode: committed flow traces
// stream into ps at completion instead of being retained, keeping
// memory O(in-flight). Only single-shard recorders may spill (the
// stream has one writer); call before Shard.
func (r *Recorder) SpillTo(ps *PerfettoStream) {
	if len(r.shards) > 1 {
		panic("trace: SpillTo on a multi-shard recorder")
	}
	r.spill = ps
}

// Shard creates the recorder for one engine shard. Each shard's
// methods are called only from that shard's goroutine; shards share
// nothing mutable.
func (r *Recorder) Shard(eng *sim.Engine) *ShardRecorder {
	if r.spill != nil && len(r.shards) > 0 {
		panic("trace: spill-mode recorder is single-shard")
	}
	s := &ShardRecorder{
		r:    r,
		eng:  eng,
		live: make(map[pkt.FlowID]*FlowTrace),
		free: pool.New[FlowTrace](1, 1024),
		done: make([]*FlowTrace, 0, 16),
		ctrl: make([]CtrlSpan, 0, 16),
	}
	r.shards = append(r.shards, s)
	return s
}

// ShardRecorder records flow and control spans for one engine shard.
// All methods are nil-safe no-ops, so call sites can stay
// unconditional when tracing is off.
type ShardRecorder struct {
	r   *Recorder
	eng *sim.Engine

	live map[pkt.FlowID]*FlowTrace
	free pool.List[FlowTrace] // recycled traces of sampled-out and shed flows

	// Committed ring: done grows to FlowCap, then donePos wraps.
	done    []*FlowTrace
	donePos int64

	// Spill-mode tie group: commits sharing one End timestamp, flushed
	// sorted by flow ID when the clock moves past them.
	spillGrp []*FlowTrace

	// Ctrl ring, same shape as done.
	ctrl    []CtrlSpan
	ctrlPos int64

	// Route ring, same shape as ctrl.
	route    []RouteEvent
	routePos int64

	started    int64
	sampledOut int64
}

// sampleHash is a SplitMix64 finalizer over (seed, flow): a cheap,
// well-mixed, shard-independent per-flow coin.
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

// FlowArrive opens a flow's trace. held reports whether the flow is
// waiting for a control-plane allocation (PASE's hold-at-source);
// otherwise it is transmitting immediately at prio.
func (s *ShardRecorder) FlowArrive(f pkt.FlowID, src, dst pkt.NodeID, size int64, prio int, held bool) {
	if s == nil {
		return
	}
	s.started++
	now := s.eng.Now()
	ft := s.free.Take()
	*ft = FlowTrace{Flow: f, Src: src, Dst: dst, Size: size, Start: now, Spans: ft.Spans[:0], Marks: ft.Marks[:0]}
	kind := SpanXfer
	if held {
		kind = SpanWait
	}
	ft.Spans = append(ft.Spans, FlowSpan{Start: now, End: now, Kind: kind, Prio: prio})
	s.live[f] = ft
}

// Epoch records a transmission-epoch transition: the current phase
// ends now and a new transmit span opens at prio. A transition into
// the phase already running is a no-op.
func (s *ShardRecorder) Epoch(f pkt.FlowID, prio int) {
	if s == nil {
		return
	}
	ft := s.live[f]
	if ft == nil {
		return
	}
	if n := len(ft.Spans); n > 0 {
		cur := &ft.Spans[n-1]
		if cur.Kind == SpanXfer && cur.Prio == prio {
			return
		}
		cur.End = s.eng.Now()
	}
	if len(ft.Spans) >= s.r.cfg.MaxPerFlow {
		ft.Truncated++
		return
	}
	now := s.eng.Now()
	ft.Spans = append(ft.Spans, FlowSpan{Start: now, End: now, Kind: SpanXfer, Prio: prio})
}

// Mark annotates the flow's timeline at the current instant. Marks
// other than grants flag the flow as always-kept.
func (s *ShardRecorder) Mark(f pkt.FlowID, kind MarkKind, arg int64) {
	if s == nil {
		return
	}
	ft := s.live[f]
	if ft == nil {
		return
	}
	if kind.flags() {
		ft.Flagged = true
	}
	if len(ft.Marks) >= s.r.cfg.MaxPerFlow {
		ft.Truncated++
		return
	}
	ft.Marks = append(ft.Marks, Mark{At: s.eng.Now(), Kind: kind, Arg: arg})
}

// FlowEnd closes a flow's trace and commits or discards it: flagged
// flows and flows passing the sample draw are kept, the rest recycle.
func (s *ShardRecorder) FlowEnd(f pkt.FlowID, aborted bool) {
	if s == nil {
		return
	}
	ft := s.live[f]
	if ft == nil {
		return
	}
	delete(s.live, f)
	now := s.eng.Now()
	ft.End = now
	if n := len(ft.Spans); n > 0 {
		ft.Spans[n-1].End = now
	}
	if aborted {
		ft.Aborted = true
		ft.Flagged = true
		if len(ft.Marks) < s.r.cfg.MaxPerFlow {
			ft.Marks = append(ft.Marks, Mark{At: now, Kind: MarkAbort})
		} else {
			ft.Truncated++
		}
	}
	if !ft.Flagged && !s.r.Sampled(f) {
		s.sampledOut++
		s.free.Put(ft)
		return
	}
	if ps := s.r.spill; ps != nil {
		// Commits arrive in clock order; flush the previous End-tie
		// group (sorted by flow ID) once the clock moves past it.
		if n := len(s.spillGrp); n > 0 && s.spillGrp[0].End != ft.End {
			s.flushSpill(ps)
		}
		s.spillGrp = append(s.spillGrp, ft)
		return
	}
	cap := s.r.cfg.FlowCap
	if len(s.done) < cap {
		s.done = append(s.done, ft)
	} else {
		s.free.Put(s.done[s.donePos%int64(cap)])
		s.done[s.donePos%int64(cap)] = ft
	}
	s.donePos++
}

func (s *ShardRecorder) flushSpill(ps *PerfettoStream) {
	grp := s.spillGrp
	sort.Slice(grp, func(i, j int) bool { return grp[i].Flow < grp[j].Flow })
	ps.Flows(grp)
	for _, ft := range grp {
		s.free.Put(ft)
	}
	s.spillGrp = s.spillGrp[:0]
}

// Ctrl records one control-plane exchange.
func (s *ShardRecorder) Ctrl(cs CtrlSpan) {
	if s == nil {
		return
	}
	cap := s.r.cfg.CtrlCap
	if len(s.ctrl) < cap {
		s.ctrl = append(s.ctrl, cs)
	} else {
		s.ctrl[s.ctrlPos%int64(cap)] = cs
	}
	s.ctrlPos++
}

// Route records one routing-control update. Call on the shard whose
// leaf table changed; a run that never reroutes records nothing and
// its trace bytes stay identical to a build without routing control.
func (s *ShardRecorder) Route(ev RouteEvent) {
	if s == nil {
		return
	}
	cap := s.r.cfg.RouteCap
	if len(s.route) < cap {
		s.route = append(s.route, ev)
	} else {
		s.route[s.routePos%int64(cap)] = ev
	}
	s.routePos++
}

// ring returns the retained ring contents oldest-first.
func ringTraces(buf []*FlowTrace, pos int64, cap int) []*FlowTrace {
	if pos <= int64(len(buf)) {
		return buf
	}
	at := int(pos % int64(cap))
	out := make([]*FlowTrace, 0, len(buf))
	out = append(out, buf[at:]...)
	return append(out, buf[:at]...)
}

func ringCtrl(buf []CtrlSpan, pos int64, cap int) []CtrlSpan {
	if pos <= int64(len(buf)) {
		return buf
	}
	at := int(pos % int64(cap))
	out := make([]CtrlSpan, 0, len(buf))
	out = append(out, buf[at:]...)
	return append(out, buf[:at]...)
}

func ringRoute(buf []RouteEvent, pos int64, cap int) []RouteEvent {
	if pos <= int64(len(buf)) {
		return buf
	}
	at := int(pos % int64(cap))
	out := make([]RouteEvent, 0, len(buf))
	out = append(out, buf[at:]...)
	return append(out, buf[:at]...)
}

// RunTrace is a run's merged flight recording in canonical order:
// Flows by (End, Flow), Ctrl by (Start, Flow, side, level), Queue by
// (At, Idx). The order — and therefore the exported bytes — is
// identical at every shard count and parallelism (up to the capacity
// caps; see Stats for what was shed).
type RunTrace struct {
	Meta  Meta
	Flows []*FlowTrace
	Ctrl  []CtrlSpan
	Queue []QueueSample
	// Route holds the routing-control events in canonical
	// (At, Rack, Kind, Spine, Arg) order; empty unless the run rerouted.
	Route []RouteEvent
	Stats TraceStats
}

// Take merges every shard's buffers into the canonical RunTrace. Call
// once, after the run. In spill mode the flows are already gone to the
// stream; Take returns the control spans, stats and meta, and the
// caller finishes with FinishSpill.
func (r *Recorder) Take() *RunTrace {
	rt := &RunTrace{Meta: r.meta}
	var flows []*FlowTrace
	for _, s := range r.shards {
		if r.spill != nil && len(s.spillGrp) > 0 {
			s.flushSpill(r.spill)
		}
		flows = append(flows, ringTraces(s.done, s.donePos, r.cfg.FlowCap)...)
		rt.Ctrl = append(rt.Ctrl, ringCtrl(s.ctrl, s.ctrlPos, r.cfg.CtrlCap)...)
		rt.Route = append(rt.Route, ringRoute(s.route, s.routePos, r.cfg.RouteCap)...)
		rt.Stats.FlowsStarted += s.started
		rt.Stats.FlowsSampledOut += s.sampledOut
		rt.Stats.FlowsUnfinished += int64(len(s.live))
		rt.Stats.CtrlTotal += s.ctrlPos
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].End != flows[j].End {
			return flows[i].End < flows[j].End
		}
		return flows[i].Flow < flows[j].Flow
	})
	// Run-wide cap: keep the most recent FlowCap by (End, Flow). Any
	// survivor is necessarily among the newest FlowCap of its own
	// shard's ring, so per-shard eviction never changes this set and
	// the output stays shard-count-invariant.
	if len(flows) > r.cfg.FlowCap {
		flows = flows[len(flows)-r.cfg.FlowCap:]
	}
	rt.Flows = flows
	sort.Slice(rt.Ctrl, func(i, j int) bool {
		a, b := rt.Ctrl[i], rt.Ctrl[j]
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
	})
	if len(rt.Ctrl) > r.cfg.CtrlCap {
		rt.Ctrl = rt.Ctrl[len(rt.Ctrl)-r.cfg.CtrlCap:]
	}
	sort.Slice(rt.Route, func(i, j int) bool {
		a, b := rt.Route[i], rt.Route[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Rack != b.Rack {
			return a.Rack < b.Rack
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Spine != b.Spine {
			return a.Spine < b.Spine
		}
		return a.Arg < b.Arg
	})
	if len(rt.Route) > r.cfg.RouteCap {
		rt.Route = rt.Route[len(rt.Route)-r.cfg.RouteCap:]
	}
	st := &rt.Stats
	st.FlowsFinal = int64(len(rt.Flows))
	st.FlowsEvicted = st.FlowsStarted - st.FlowsSampledOut - st.FlowsUnfinished - st.FlowsFinal
	for _, ft := range rt.Flows {
		st.SpansTruncated += ft.Truncated
	}
	st.CtrlEvicted = st.CtrlTotal - int64(len(rt.Ctrl))
	return rt
}

// FinishSpill completes a spill-mode stream: the control spans and
// queue samples land after the flow sections, and the JSON closes.
func (r *Recorder) FinishSpill(rt *RunTrace) error {
	if r.spill == nil {
		panic("trace: FinishSpill without SpillTo")
	}
	return r.spill.Finish(rt.Ctrl, rt.Queue, rt.Route)
}

// Digest folds the trace's canonical content into one FNV-1a hash —
// the cheap equality pin for determinism tests.
func (rt *RunTrace) Digest() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v int64) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= 1099511628211
			u >>= 8
		}
	}
	for _, ft := range rt.Flows {
		mix(int64(ft.Flow))
		mix(int64(ft.Start))
		mix(int64(ft.End))
		mix(ft.Size)
		b := int64(0)
		if ft.Flagged {
			b = 1
		}
		if ft.Aborted {
			b |= 2
		}
		mix(b)
		for _, sp := range ft.Spans {
			mix(int64(sp.Start))
			mix(int64(sp.End))
			mix(int64(sp.Kind))
			mix(int64(sp.Prio))
		}
		for _, m := range ft.Marks {
			mix(int64(m.At))
			mix(int64(m.Kind))
			mix(m.Arg)
		}
	}
	for _, c := range rt.Ctrl {
		mix(int64(c.Flow))
		mix(int64(c.Start))
		mix(int64(c.Latency))
		mix(int64(c.Level))
		mix(int64(c.Outcome))
	}
	for _, q := range rt.Queue {
		mix(int64(q.At))
		mix(int64(q.Idx))
		mix(int64(q.Len))
		mix(q.Bytes)
	}
	// Route events mix last: a run with none keeps the digest it had
	// before routing control existed.
	for _, r := range rt.Route {
		mix(int64(r.At))
		mix(int64(r.Rack))
		mix(int64(r.Kind))
		mix(int64(r.Spine))
		mix(r.Arg)
	}
	return h
}
