// Package pdq implements PDQ (Hong et al., SIGCOMM 2012), the paper's
// representative of the pure-arbitration strategy: switches explicitly
// allocate rates to flows in criticality order (earliest deadline
// first, then shortest remaining size), pausing everyone else.
//
// Senders are rate-paced, not windowed. Once per RTT each sender
// synchronizes with every switch on its path (modelling PDQ's
// piggybacked header exchange, including its latency): it publishes
// its remaining size, deadline and demand, and receives the minimum
// allocated rate, applying it half an RTT later. A paused flow keeps
// probing on the same cadence. This explicit pause/resume signalling
// is exactly the flow-switching overhead (~1–2 RTT) the PASE paper
// isolates in Figure 2.
//
// The implementation includes PDQ's two published mitigations:
//
//   - Early Start: while the drain time of the flows already granted
//     on a link is under earlyStartRTTs round trips, the next queued
//     flow is granted capacity too, overlapping its ramp-up with the
//     current flow's tail.
//   - Early Termination: a deadline flow that provably cannot finish
//     in time is killed (deadline scenarios only).
package pdq

import (
	"sort"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
)

// PDQ parameters, with all switching-overhead optimizations enabled
// (as in the paper's Fig. 2).
const (
	// syncEvery is the header-exchange cadence as a multiple of the
	// flow RTT.
	syncEvery = 1
	// earlyStartRTTs is K in PDQ's Early Start rule.
	earlyStartRTTs = 2
	// minRTO floors the retransmission timeout.
	minRTO = 10 * sim.Millisecond
)

// entry is per-flow state at one link allocator.
type entry struct {
	flow      pkt.FlowID
	remaining int64
	deadline  sim.Time
	demand    netem.BitRate
	granted   netem.BitRate
}

// Allocator is the PDQ rate allocator for one directed link.
type Allocator struct {
	capacity netem.BitRate
	flows    map[pkt.FlowID]*entry
}

// NewAllocator returns an allocator for a link of the given capacity.
func NewAllocator(capacity netem.BitRate) *Allocator {
	return &Allocator{capacity: capacity, flows: make(map[pkt.FlowID]*entry)}
}

// Update publishes a flow's current state and returns its allocated
// rate on this link.
func (a *Allocator) Update(flow pkt.FlowID, remaining int64, deadline sim.Time, demand netem.BitRate, rtt sim.Duration) netem.BitRate {
	e, ok := a.flows[flow]
	if !ok {
		e = &entry{flow: flow}
		a.flows[flow] = e
	}
	e.remaining = remaining
	e.deadline = deadline
	e.demand = demand
	a.allocate(rtt)
	return e.granted
}

// Remove deregisters a finished or killed flow.
func (a *Allocator) Remove(flow pkt.FlowID) {
	delete(a.flows, flow)
}

// allocate recomputes every flow's grant: criticality order, greedy
// capacity assignment, then Early Start.
func (a *Allocator) allocate(rtt sim.Duration) {
	order := make([]*entry, 0, len(a.flows))
	for _, e := range a.flows {
		order = append(order, e)
	}
	sort.Slice(order, func(i, j int) bool {
		ei, ej := order[i], order[j]
		// Earliest deadline first; deadline flows precede deadline-free
		// flows; ties and no-deadline flows by shortest remaining.
		switch {
		case ei.deadline != 0 && ej.deadline == 0:
			return true
		case ei.deadline == 0 && ej.deadline != 0:
			return false
		case ei.deadline != ej.deadline:
			return ei.deadline < ej.deadline
		case ei.remaining != ej.remaining:
			return ei.remaining < ej.remaining
		default:
			return ei.flow < ej.flow
		}
	})

	available := a.capacity
	drain := sim.Duration(0) // drain time of everything granted so far
	for _, e := range order {
		switch {
		case available > 0:
			grant := e.demand
			if grant > available {
				grant = available
			}
			e.granted = grant
			available -= grant
			if grant > 0 {
				drain += sim.Duration(float64(e.remaining*8) / float64(grant) * float64(sim.Second))
			}
		case drain < sim.Duration(earlyStartRTTs*float64(rtt)):
			// Early Start: the link frees up within the signalling
			// horizon; let this flow begin now.
			e.granted = e.demand
			drain += sim.Duration(float64(e.remaining*8) / float64(e.demand) * float64(sim.Second))
		default:
			e.granted = 0 // paused
		}
	}
}

// System wires PDQ onto a driver: one allocator per directed link and
// one paced Control per flow.
type System struct {
	// earlyTermination kills deadline flows that can no longer finish
	// on time.
	earlyTermination bool
	net              *topology.Network

	allocs map[int]*Allocator // by link ID

	// SyncMessages counts header exchanges (sender<->path), the
	// analogue of arbitration overhead.
	SyncMessages int64
}

// Attach installs PDQ on every stack of the driver; earlyTermination
// turns on PDQ's Early Termination.
func Attach(d *transport.Driver, earlyTermination bool) *System {
	sys := &System{earlyTermination: earlyTermination, net: d.Net, allocs: make(map[int]*Allocator)}
	for _, l := range d.Net.Links {
		sys.allocs[l.ID] = NewAllocator(l.Capacity())
	}
	newControl := sys.newControl
	for _, st := range d.Stacks {
		st.NewControl = newControl
	}
	prev := d.OnFlowDone
	d.OnFlowDone = func(s *transport.Sender) {
		sys.release(s)
		if prev != nil {
			prev(s)
		}
	}
	return sys
}

func (sys *System) newControl(s *transport.Sender) transport.Control {
	return &control{sys: sys}
}

func (sys *System) release(s *transport.Sender) {
	c, ok := s.CC.(*control)
	if !ok {
		return
	}
	c.stopped = true
	c.syncTimer.Stop()
	for _, l := range c.path {
		sys.allocs[l.ID].Remove(s.Spec.ID)
	}
}

type control struct {
	sys       *System
	path      []*topology.Link
	syncTimer sim.Timer
	stopped   bool
}

// Init implements transport.Control.
func (c *control) Init(s *transport.Sender) {
	s.CC = c
	s.Paced = true
	s.Rate = 0 // paused until the first allocation arrives
	c.path = c.sys.net.PathFlow(s.Spec.Src, s.Spec.Dst, s.Spec.ID)
	c.scheduleSync(s, 0)
}

// scheduleSync runs the header exchange after delay: allocators see
// the flow's state half an RTT out (header propagating), and the
// resulting rate takes effect a full RTT after initiation.
func (c *control) scheduleSync(s *transport.Sender, delay sim.Duration) {
	eng := s.Stack().Eng
	c.syncTimer = eng.Schedule(delay, func() {
		if c.stopped || s.Done {
			return
		}
		rtt := s.RTT()
		eng.Schedule(rtt/2, func() {
			if c.stopped || s.Done {
				return
			}
			rate := c.sync(s, rtt)
			eng.Schedule(rtt/2, func() {
				if c.stopped || s.Done {
					return
				}
				s.SetRate(rate)
			})
		})
		c.scheduleSync(s, sim.Duration(syncEvery*float64(rtt)))
	})
}

// sync publishes state to every allocator on the path and returns the
// path-minimum grant.
func (c *control) sync(s *transport.Sender, rtt sim.Duration) netem.BitRate {
	remaining := s.Remaining()
	demand := c.demand(s, rtt)
	rate := netem.BitRate(1 << 62)
	for _, l := range c.path {
		g := c.sys.allocs[l.ID].Update(s.Spec.ID, remaining, s.Spec.Deadline, demand, rtt)
		if g < rate {
			rate = g
		}
	}
	c.sys.SyncMessages += int64(len(c.path))

	if c.sys.earlyTermination && s.Spec.Deadline != 0 {
		left := s.Spec.Deadline.Sub(s.Now())
		need := sim.Duration(float64(remaining*8) / float64(s.Stack().NICRate()) * float64(sim.Second))
		if left <= 0 || need > left {
			// The flow cannot finish on time even at line rate: kill
			// it so its capacity helps others (PDQ Early Termination).
			s.Abort()
			return 0
		}
	}
	return rate
}

// demand computes the rate the sender could actually use.
func (c *control) demand(s *transport.Sender, rtt sim.Duration) netem.BitRate {
	nic := s.Stack().NICRate()
	canUse := netem.BitRate(float64(s.Remaining()*8) / rtt.Seconds())
	onePktPerRTT := netem.BitRate(float64(pkt.MTU*8) / rtt.Seconds())
	if canUse < onePktPerRTT {
		canUse = onePktPerRTT
	}
	if canUse < nic {
		return canUse
	}
	return nic
}

// OnAck implements transport.Control (rate is set by arbitration, not
// by feedback).
func (c *control) OnAck(*transport.Sender, *pkt.Packet, int32, sim.Duration) {}

// OnLoss implements transport.Control.
func (c *control) OnLoss(*transport.Sender) {}

// OnTimeout implements transport.Control.
func (c *control) OnTimeout(*transport.Sender) bool { return false }

// FillData implements transport.Control.
func (c *control) FillData(s *transport.Sender, p *pkt.Packet) {
	p.ECT = false
	p.Rank = s.Remaining()
}

// MinRTO implements transport.Control.
func (c *control) MinRTO(*transport.Sender) sim.Duration { return minRTO }
