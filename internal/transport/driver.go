package transport

import (
	"fmt"
	"sort"
	"sync/atomic"

	"pase/internal/check"
	"pase/internal/metrics"
	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/workload"
)

// streamGrace is how long a streaming run keeps simulating after the
// last arrival before declaring the stragglers unfinished — the same
// 10 s pad stored runs apply to the workload span.
const streamGrace = sim.Duration(10 * sim.Second)

// StreamGrace is the post-last-arrival grace period of streaming runs,
// exported so the sharded runner's watchdog matches ScheduleStream's.
const StreamGrace = streamGrace

// Driver runs a workload over a built fabric: it installs one Stack
// per host, schedules flow arrivals, and stops the simulation when
// every foreground flow has completed (or a deadline passes).
//
// Two scheduling modes exist. Schedule materializes every arrival up
// front (O(flows) memory, the historical behavior). ScheduleStream
// pulls arrivals from an iterator one at a time and keeps only the
// next pending flow, which — combined with UseSink's bounded-memory
// collector, sender recycling and receiver release — makes memory
// O(in-flight flows) instead of O(total flows).
type Driver struct {
	Eng    *sim.Engine
	Net    *topology.Network
	Stacks []*Stack
	// Collector is the stored-mode collector (nil after UseSink).
	Collector *metrics.Collector
	// Sink receives every flow record; it equals Collector until
	// UseSink swaps in a streaming collector.
	Sink metrics.Sink

	// OnFlowDone, when set, is called after any flow completes
	// (protocol integrations use it to release arbitration state).
	OnFlowDone func(s *Sender)
	// OnFlowStart, when set, is called right after a scheduled flow's
	// sender starts transmitting (tracing hooks observe arrivals here).
	OnFlowStart func(s *Sender)

	// OnZero, when set, replaces the default stop logic when the last
	// foreground flow completes. Sharded runs route it to the
	// coordinator's stop request (an Engine.Stop on one shard would
	// only halt that shard).
	OnZero func()
	// ChkOf, when set, attaches the runtime invariant checker: every
	// completed flow is verified against its physical completion-time
	// lower bound — Size bytes cannot clear the path's bottleneck link
	// faster than their serialization time there. The checker is
	// selected by the flow's source host, since sharded runs keep one
	// per shard (a Checker is not concurrent-safe).
	ChkOf func(src pkt.NodeID) *check.Checker
	// DropRx, when set, routes streaming-mode receiver release to the
	// destination host's shard instead of mutating the destination
	// stack inline from the completing (source-side) event.
	DropRx func(src, dst pkt.NodeID, flow pkt.FlowID)

	// remaining is atomic: in sharded runs flows complete concurrently
	// on different shards.
	remaining atomic.Int64
	started   []*Sender
	// walkUnfinished forces unfinished() to walk the stacks' sender
	// maps (sharded stored runs never populate started).
	walkUnfinished bool

	// Streaming-mode state: the iterator, the one pending arrival, and
	// a reusable arrival closure (the hot path schedules no per-flow
	// closures).
	streaming     bool
	streamNext    func() (workload.FlowSpec, bool)
	pending       workload.FlowSpec
	hasPending    bool
	streamDrained bool
	arrivalFn     func()
}

// InstrumentEach attaches observability to every stack, resolving the
// registry by host: a sharded run gives every shard its own registry
// (instruments are not concurrent-safe) and merges the snapshots; a
// serial run returns the same one for every host. The recorded streams:
//
//	transport/retx          retransmitted data segments
//	transport/timeouts      RTO firings
//	transport/probes        PASE loss-discrimination probes sent
//	transport/rate_updates  pacing-rate changes (SetRate calls)
//	transport/aborts        flows the transport killed (deadline aborts,
//	                        PDQ early termination)
func (d *Driver) InstrumentEach(regOf func(h pkt.NodeID) *obs.Registry) {
	for _, st := range d.Stacks {
		reg := regOf(st.Host.ID())
		st.obs = stackObs{
			retx:        reg.Counter("transport/retx"),
			timeouts:    reg.Counter("transport/timeouts"),
			probes:      reg.Counter("transport/probes"),
			rateUpdates: reg.Counter("transport/rate_updates"),
			aborts:      reg.Counter("transport/aborts"),
		}
	}
}

// NewDriver builds stacks on every host of the fabric.
func NewDriver(net *topology.Network, newControl func(*Sender) Control) *Driver {
	d := &Driver{
		Eng:       net.Eng,
		Net:       net,
		Collector: metrics.NewCollector(),
	}
	d.Sink = d.Collector
	for _, h := range net.Hosts {
		h := h
		// A host's stack lives on the engine its NIC is clocked by —
		// net.Eng normally, the host's shard engine in sharded runs.
		st := NewStack(h.Port().Engine(), h)
		st.NewControl = newControl
		st.Collector = d.Sink
		st.BaseRTT = func(dst pkt.NodeID) sim.Duration { return net.BaseRTT(h.ID(), dst) }
		st.OnFlowDone = d.flowDone
		d.Stacks = append(d.Stacks, st)
	}
	return d
}

// UseSink replaces the stored collector with a bounded-memory sink and
// switches every stack into recycling mode: completed senders return
// to a free list and receiver state is released on flow completion.
// Call it before scheduling anything.
func (d *Driver) UseSink(sink metrics.Sink) {
	d.Collector = nil
	d.Sink = sink
	for _, st := range d.Stacks {
		st.Collector = sink
		st.Recycle = true
	}
}

// Stack returns the stack of host id.
func (d *Driver) Stack(id pkt.NodeID) *Stack { return d.Stacks[id] }

// checkFCT verifies one completed flow's FCT lower bound.
func (d *Driver) checkFCT(chk *check.Checker, s *Sender) {
	var bottleneck netem.BitRate
	for _, l := range d.Net.PathFlow(s.Spec.Src, s.Spec.Dst, s.Spec.ID) {
		if bottleneck == 0 || l.Capacity() < bottleneck {
			bottleneck = l.Capacity()
		}
	}
	if bottleneck <= 0 {
		return
	}
	bound := s.Spec.Size * 8 * int64(sim.Second) / int64(bottleneck)
	fct := int64(s.FinishTime.Sub(s.Spec.Start))
	chk.FCTBound("transport/flow", uint64(s.Spec.ID), fct, bound)
}

func (d *Driver) flowDone(s *Sender) {
	if d.ChkOf != nil && !s.Aborted {
		d.checkFCT(d.ChkOf(s.Spec.Src), s)
	}
	if d.streaming {
		if d.DropRx != nil {
			d.DropRx(s.Spec.Src, s.Spec.Dst, s.Spec.ID)
		} else {
			d.Stacks[s.Spec.Dst].DropReceiver(s.Spec.ID)
		}
	}
	if !s.Spec.Background {
		// A streaming run may momentarily have zero flows in flight
		// while arrivals are still pending; only stop once the
		// iterator is exhausted too.
		if d.remaining.Add(-1) == 0 {
			if d.OnZero != nil {
				d.OnZero()
			} else if !d.streaming || d.streamDrained {
				d.Eng.Stop()
			}
		}
	}
	if d.OnFlowDone != nil {
		d.OnFlowDone(s)
	}
}

// Schedule queues the flow arrivals onto the engine.
func (d *Driver) Schedule(flows []workload.FlowSpec) {
	for _, f := range flows {
		f := f
		if !f.Background {
			d.remaining.Add(1)
		}
		d.Eng.At(f.Start, func() {
			s := d.Stack(f.Src).StartFlow(f)
			d.started = append(d.started, s)
			if d.OnFlowStart != nil {
				d.OnFlowStart(s)
			}
		})
	}
}

// ScheduleStream switches the driver to streaming mode: next is pulled
// lazily, one arrival ahead of the simulation clock, so the schedule
// never materializes. The iterator must yield flows in
// non-decreasing Start order (workload.Spec.Stream does). Arrival
// events go on the calendar with AtHead so they win timestamp ties
// against in-flight packet and timer events — the order a materialized
// schedule gets for free, since its arrivals hold lower sequence
// numbers than anything enqueued mid-run.
func (d *Driver) ScheduleStream(next func() (workload.FlowSpec, bool)) {
	d.streaming = true
	d.streamNext = next
	d.arrivalFn = d.onArrival
	f, ok := next()
	if !ok {
		d.streamDrained = true
		return
	}
	d.pending = f
	d.hasPending = true
	d.Eng.AtHead(f.Start, d.arrivalFn)
}

// onArrival starts the pending flow and schedules the next arrival.
// Flows sharing one timestamp (a fan-in query's responses, the t=0
// background flows) are started back-to-back within this one event:
// that reproduces stored-mode event order, where all same-time arrival
// events were enqueued before any event their processing schedules.
func (d *Driver) onArrival() {
	for {
		cur := d.pending
		next, ok := d.streamNext()
		if !ok {
			d.hasPending = false
			d.streamDrained = true
			// Watchdog: give stragglers the same grace stored runs
			// get past the last arrival, then cut the run.
			d.Eng.At(cur.Start.Add(streamGrace), d.Eng.Stop)
			d.startStreamFlow(cur)
			return
		}
		d.pending = next
		if next.Start != cur.Start {
			d.Eng.AtHead(next.Start, d.arrivalFn)
			d.startStreamFlow(cur)
			return
		}
		d.startStreamFlow(cur)
	}
}

func (d *Driver) startStreamFlow(f workload.FlowSpec) {
	if !f.Background {
		d.remaining.Add(1)
	}
	s := d.Stack(f.Src).StartFlow(f)
	if d.OnFlowStart != nil {
		d.OnFlowStart(s)
	}
}

// Prime registers n foreground flows whose arrival events are
// scheduled externally — the sharded runner places each arrival on its
// source host's shard engine and starts it via StartArrival.
func (d *Driver) Prime(n int) {
	d.remaining.Add(int64(n))
	d.walkUnfinished = true
}

// MarkStreaming switches the driver into streaming semantics (receiver
// release on completion, stack-walk accounting) without installing an
// iterator; the sharded runner injects arrivals itself, registering
// each foreground flow with Prime and starting it with StartArrival.
func (d *Driver) MarkStreaming() {
	d.streaming = true
	d.walkUnfinished = true
}

// StartArrival starts flow f on its source stack at the current time —
// the body of an externally scheduled arrival event. A foreground
// flow must have been registered with Prime first.
func (d *Driver) StartArrival(f workload.FlowSpec) {
	s := d.Stack(f.Src).StartFlow(f)
	if d.OnFlowStart != nil {
		d.OnFlowStart(s)
	}
}

// Run executes until every scheduled foreground flow completes or
// maxTime elapses (ignored in streaming mode, which bounds the run by
// the last arrival plus a grace period), then records any unfinished
// foreground flows as incomplete. It returns the summarized metrics.
func (d *Driver) Run(maxTime sim.Time) (metrics.Summary, error) {
	if d.streaming {
		if d.streamDrained && !d.hasPending {
			return metrics.Summary{}, fmt.Errorf("transport: no foreground flows scheduled")
		}
		if err := d.Eng.Run(); err != nil {
			return metrics.Summary{}, err
		}
	} else {
		if d.remaining.Load() == 0 {
			return metrics.Summary{}, fmt.Errorf("transport: no foreground flows scheduled")
		}
		if err := d.Eng.RunUntil(maxTime); err != nil {
			return metrics.Summary{}, err
		}
	}
	d.FlushUnfinished()
	return d.Sink.Summarize(), nil
}

// FlushUnfinished records every cut-off foreground flow into the sink.
// Run does this for serial runs; the sharded runner calls it after
// draining the shard engines.
func (d *Driver) FlushUnfinished() {
	for _, s := range d.unfinished() {
		d.Sink.Add(metrics.FlowRecord{
			ID:       uint64(s.Spec.ID),
			Task:     s.Spec.Task,
			Size:     s.Spec.Size,
			Start:    s.Spec.Start,
			Deadline: s.Spec.Deadline,
			Done:     false,
			Retx:     s.Retx,
			Timeouts: s.Timeouts,
		})
	}
}

// unfinished returns the foreground senders the run cut off, in flow-id
// order. Stored mode reads the started list; streaming mode (which
// retains no such list) walks the stacks' live sender maps.
func (d *Driver) unfinished() []*Sender {
	var out []*Sender
	if !d.streaming && !d.walkUnfinished {
		for _, s := range d.started {
			if !s.Done && !s.Spec.Background {
				out = append(out, s)
			}
		}
		return out
	}
	for _, st := range d.Stacks {
		for _, s := range st.senders {
			if !s.Done && !s.Spec.Background {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.ID < out[j].Spec.ID })
	return out
}

// Remaining returns how many foreground flows have not yet finished.
func (d *Driver) Remaining() int { return int(d.remaining.Load()) }
