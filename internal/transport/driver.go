package transport

import (
	"cmp"
	"fmt"
	"slices"
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

// StreamGrace is how long a run with no deadline of its own keeps
// simulating after the last arrival before declaring the stragglers
// unfinished (exported for the sharded runner's watchdog).
const StreamGrace = sim.Duration(10 * sim.Second)

// Driver runs a workload over a built fabric: it installs one Stack
// per host, starts flows as they arrive, and stops the simulation when
// every foreground flow has completed (or a deadline passes).
//
// Arrivals are one chain in every run: the driver holds the next
// pending flow and nothing else of the schedule, each arrival event
// starts its flows and puts the following arrival on the calendar.
// Schedule feeds the chain from a slice, ScheduleStream from an
// iterator. Senders and receivers are records of a per-engine pool and
// go back to it when their flow ends, so memory is O(flows in flight)
// whatever the sink keeps.
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
	// DropRx, when set, routes receiver release to the destination
	// host's shard instead of mutating the destination stack inline
	// from the completing (source-side) event.
	DropRx func(src, dst pkt.NodeID, flow pkt.FlowID)

	// remaining counts the foreground flows primed and not yet ended.
	// It is atomic: in sharded runs flows complete concurrently on
	// different shards.
	remaining atomic.Int64

	// The arrival chain: the source, the one pending arrival, whether
	// Run was given a deadline, and the arrival event's closure (built
	// once, so the chain schedules no per-flow closures).
	next       func() (workload.FlowSpec, bool)
	pending    workload.FlowSpec
	hasPending bool
	deadline   bool
	arrivalFn  func()
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
	d.arrivalFn = d.onArrival
	d.Stacks = make([]*Stack, len(net.Hosts))
	// What every stack shares is made once, not once per host.
	baseRTT, flowDone := net.BaseRTT, d.flowDone
	pools := make(map[*sim.Engine]*flowPool)
	for i, h := range net.Hosts {
		// A host's stack lives on the engine its NIC is clocked by —
		// net.Eng normally, the host's shard engine in sharded runs —
		// and shares that engine's flow pool.
		eng := h.Port().Engine()
		if pools[eng] == nil {
			pools[eng] = newFlowPool(eng)
		}
		st := newStack(eng, h, pools[eng])
		st.NewControl = newControl
		st.Collector = d.Sink
		st.BaseRTT = baseRTT
		st.OnFlowDone = flowDone
		d.Stacks[i] = st
	}
	return d
}

// UseSink replaces the stored collector with a bounded-memory sink.
// Call it before scheduling anything.
func (d *Driver) UseSink(sink metrics.Sink) {
	d.Collector = nil
	d.Sink = sink
	for _, st := range d.Stacks {
		st.Collector = sink
	}
}

// Stack returns the stack of host id.
func (d *Driver) Stack(id pkt.NodeID) *Stack { return d.Stacks[id] }

// checkFCT verifies one completed flow's FCT lower bound.
func (d *Driver) checkFCT(chk *check.Checker, s *Sender) {
	var bottleneck netem.BitRate
	// The path lands in a stack array: shards check their flows
	// concurrently, so no scratch on the driver could be shared.
	var buf [8]*topology.Link
	path, _ := d.Net.AppendPath(buf[:0], s.Spec.Src, s.Spec.Dst, s.Spec.ID)
	for _, l := range path {
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
	if d.DropRx != nil {
		d.DropRx(s.Spec.Src, s.Spec.Dst, s.Spec.ID)
	} else {
		d.Stacks[s.Spec.Dst].DropReceiver(s.Spec.ID)
	}
	// A run may momentarily have zero flows in flight while arrivals
	// are still pending; only stop once the chain is exhausted too.
	if !s.Spec.Background && d.remaining.Add(-1) == 0 {
		if d.OnZero != nil {
			d.OnZero()
		} else if !d.hasPending {
			d.Eng.Stop()
		}
	}
	if d.OnFlowDone != nil {
		d.OnFlowDone(s)
	}
}

// Schedule feeds the arrival chain from a slice. The chain wants
// non-decreasing Start, so it walks a copy stable-sorted by Start:
// flows sharing a timestamp start in slice order.
func (d *Driver) Schedule(flows []workload.FlowSpec) {
	flows = slices.Clone(flows)
	slices.SortStableFunc(flows, func(a, b workload.FlowSpec) int { return cmp.Compare(a.Start, b.Start) })
	d.ScheduleStream(func() (f workload.FlowSpec, ok bool) {
		if len(flows) == 0 {
			return f, false
		}
		f, flows = flows[0], flows[1:]
		return f, true
	})
}

// ScheduleStream starts the arrival chain: next is pulled lazily, one
// arrival ahead of the simulation clock, so the schedule never
// materializes. The iterator must yield flows in non-decreasing Start
// order (workload.Spec.Stream does). Arrival events go on the calendar
// with AtHead so they win timestamp ties against in-flight packet and
// timer events — the order a schedule laid out before the run would
// get for free, its arrivals holding lower sequence numbers than
// anything enqueued mid-run. One chain runs at a time: schedule again
// only after the previous arrivals have all started.
func (d *Driver) ScheduleStream(next func() (workload.FlowSpec, bool)) {
	if d.hasPending {
		panic("transport: arrivals scheduled while earlier ones are pending")
	}
	d.next = next
	if d.pending, d.hasPending = next(); d.hasPending {
		d.Eng.AtHead(d.pending.Start, d.arrivalFn)
	}
}

// onArrival starts the pending flow and schedules the next arrival.
// Flows sharing one timestamp (a fan-in query's responses, the t=0
// background flows) are started back-to-back within this one event, so
// none of them sees an event the others' start scheduled; what follows
// the batch goes on the calendar before its last flow starts.
func (d *Driver) onArrival() {
	for {
		cur := d.pending
		d.pending, d.hasPending = d.next()
		batch := d.hasPending && d.pending.Start == cur.Start
		switch {
		case batch:
		case d.hasPending:
			d.Eng.AtHead(d.pending.Start, d.arrivalFn)
		case !d.deadline:
			// Watchdog: give stragglers a grace period past the last
			// arrival, then cut the run.
			d.Eng.At(cur.Start.Add(StreamGrace), d.Eng.Stop)
		}
		if !cur.Background {
			d.Prime(1)
		}
		d.StartArrival(cur)
		if !batch {
			return
		}
	}
}

// Prime registers n foreground flows about to start: the chain as each
// starts, the sharded runner — which places arrivals on the source
// hosts' shard engines itself — as it injects them, so no shard sees
// zero flows in flight while an injected arrival is still to fire.
func (d *Driver) Prime(n int) { d.remaining.Add(int64(n)) }

// StartArrival starts flow f on its source stack at the current time —
// the body of an arrival event. A foreground flow must have been
// registered with Prime first.
func (d *Driver) StartArrival(f workload.FlowSpec) {
	s := d.Stack(f.Src).StartFlow(f)
	if d.OnFlowStart != nil {
		d.OnFlowStart(s)
	}
}

// Run executes until every scheduled foreground flow has completed or
// the deadline passes — maxTime, or with maxTime zero a grace period
// past the last arrival — then records any unfinished foreground flows
// as incomplete. It returns the summarized metrics.
func (d *Driver) Run(maxTime sim.Time) (metrics.Summary, error) {
	if !d.hasPending && d.remaining.Load() == 0 {
		return metrics.Summary{}, fmt.Errorf("transport: no foreground flows scheduled")
	}
	var err error
	if d.deadline = maxTime > 0; d.deadline {
		err = d.Eng.RunUntil(maxTime)
	} else {
		err = d.Eng.Run()
	}
	if err != nil {
		return metrics.Summary{}, err
	}
	d.FlushUnfinished()
	return d.Sink.Summarize(), nil
}

// FlushUnfinished records every foreground flow the run cut off —
// whatever is still in the stacks' sender maps — into the sink, in
// flow-id order. Run does this for serial runs; the sharded runner
// calls it after draining the shard engines.
func (d *Driver) FlushUnfinished() {
	var cut []*Sender
	for _, st := range d.Stacks {
		for _, s := range st.senders {
			if !s.Spec.Background {
				cut = append(cut, s)
			}
		}
	}
	slices.SortFunc(cut, func(a, b *Sender) int { return cmp.Compare(a.Spec.ID, b.Spec.ID) })
	for _, s := range cut {
		d.Sink.Add(s.record())
	}
}
