// Package pdq implements PDQ (Hong et al., SIGCOMM 2012), the paper's
// representative of the pure-arbitration strategy: switches explicitly
// allocate rates to flows in criticality order (earliest deadline
// first, then shortest remaining size), pausing everyone else. Each
// link's allocator is PASE's per-link arbitrator (Algorithm 1): PDQ's
// greedy grant is its top-queue reference rate.
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
	"math"

	"pase/internal/check"
	"pase/internal/core/arbitration"
	"pase/internal/netem"
	"pase/internal/obs"
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

// System wires PDQ onto a driver: one arbitrator per directed link and
// one paced Control per flow.
type System struct {
	// earlyTermination kills deadline flows that can no longer finish
	// on time.
	earlyTermination bool
	net              *topology.Network

	// arbs is each link's allocator, by link ID: two queues, no base
	// rate and period 0, so every sync recomputes the link's grants.
	// All of them draw their entries from one EntryPool.
	arbs []*arbitration.Arbitrator

	// SyncMessages counts header exchanges (sender<->path), the
	// analogue of arbitration overhead.
	SyncMessages int64
}

// Attach installs PDQ on every stack of the driver; earlyTermination
// turns on PDQ's Early Termination.
func Attach(d *transport.Driver, earlyTermination bool) *System {
	sys := &System{earlyTermination: earlyTermination, net: d.Net, arbs: make([]*arbitration.Arbitrator, len(d.Net.Links))}
	entries := arbitration.NewEntryPool()
	for _, l := range d.Net.Links {
		sys.arbs[l.ID] = arbitration.NewArbitrator(l.ID, l.Capacity(), 2, 0, 0, d.Net.Eng.Now).DrawFrom(entries)
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

// Instrument counts the entries every allocation pass sorts
// (arb/entries_sorted). A nil registry detaches (the default).
func (sys *System) Instrument(reg *obs.Registry) {
	for _, a := range sys.arbs {
		a.Instrument(reg)
	}
}

// AttachCheck verifies every link's allocation passes against
// Algorithm 1's feasibility rules: queue-0 grants sum to at most the
// capacity, and Early Start grants sit in queue 1. Nil detaches.
func (sys *System) AttachCheck(c *check.Checker) {
	for _, a := range sys.arbs {
		a.AttachCheck(c)
	}
}

// newControl starts over the control a recycled sender still holds
// (or a new one): the path keeps its backing array, and nothing of the
// last flow can reach the control, because release stopped all three
// of its phases.
func (sys *System) newControl(s *transport.Sender) transport.Control {
	c := transport.ReuseControl[control](s)
	*c = control{sys: sys, path: c.path[:0]}
	return c
}

// release ends a flow's header exchange: its pending phases are
// stopped, so none can fire on the record's next life, and the flow
// leaves every arbitrator on its path.
func (sys *System) release(s *transport.Sender) {
	c, ok := s.Control().(*control)
	if !ok {
		return
	}
	c.syncTimer.Stop()
	c.publishTimer.Stop()
	c.applyTimer.Stop()
	for _, l := range c.path {
		sys.arbs[l.ID].Remove(s.Spec.ID)
	}
}

type control struct {
	sys  *System
	path []*topology.Link
	// The pending sync, publish and apply; release stops all three.
	syncTimer, publishTimer, applyTimer sim.Timer
	// rtt (taken at sync, read by publish) and rate (granted at
	// publish, set by apply) pass between the phases; both phases fire
	// before the next sync.
	rtt  sim.Duration
	rate netem.BitRate
}

// Init implements transport.Control.
func (c *control) Init(s *transport.Sender) {
	s.Paced = true
	s.Rate = 0 // paused until the first allocation arrives
	c.path, _ = c.sys.net.AppendPath(c.path, s.Spec.Src, s.Spec.Dst, s.Spec.ID)
	c.syncTimer = s.Stack().Eng.ScheduleAction(0, (*syncAction)(c), s)
}

// The header exchange's three phases are pre-bound sim.Actions on the
// control with the sender as argument, so a sync allocates nothing:
// sync re-arms itself every RTT, arbitrators see the flow's state half
// an RTT out (publish), and the rate takes effect half an RTT later.
type (
	syncAction    control
	publishAction control
	applyAction   control
)

func (a *syncAction) Fire(arg any) {
	c, s := (*control)(a), arg.(*transport.Sender)
	c.rtt = s.RTT()
	eng := s.Stack().Eng
	c.publishTimer = eng.ScheduleAction(c.rtt/2, (*publishAction)(c), s)
	c.syncTimer = eng.ScheduleAction(sim.Duration(syncEvery*float64(c.rtt)), a, s)
}

func (a *publishAction) Fire(arg any) {
	c, s := (*control)(a), arg.(*transport.Sender)
	c.rate = c.sync(s, c.rtt)
	if s.Done {
		// Early Termination killed the flow and released its sender.
		return
	}
	c.applyTimer = s.Stack().Eng.ScheduleAction(c.rtt/2, (*applyAction)(c), s)
}

func (a *applyAction) Fire(arg any) {
	c, s := (*control)(a), arg.(*transport.Sender)
	s.SetRate(c.rate)
}

// sync publishes state to every arbitrator on the path and returns the
// path-minimum grant.
func (c *control) sync(s *transport.Sender, rtt sim.Duration) netem.BitRate {
	remaining := s.Remaining()
	demand := c.demand(s, rtt)
	// Earliest deadline first, deadline-free flows last; the remaining
	// size breaks ties.
	key := int64(s.Spec.Deadline)
	if key == 0 {
		key = math.MaxInt64
	}
	horizon := sim.Duration(earlyStartRTTs * float64(rtt))
	rate := netem.BitRate(1 << 62)
	for _, l := range c.path {
		g := c.sys.arbs[l.ID].Grant(s.Spec.ID, key, remaining, demand, horizon)
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
	canUse := netem.BitRate(float64(s.Remaining()*8) / rtt.Seconds())
	onePktPerRTT := netem.BitRate(float64(pkt.MTU*8) / rtt.Seconds())
	return min(max(canUse, onePktPerRTT), s.Stack().NICRate())
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
