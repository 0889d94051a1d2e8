package arbitration

import (
	"pase/internal/netem"
	"pase/internal/sim"
	"pase/internal/trace"
)

// centralPerRequest is the controller's per-request service time:
// roughly what a tuned single-box scheduler spends computing one
// whole-path allocation (Shah & Xie report handling on the order of
// 10^6 allocations per second).
const centralPerRequest = 1 * sim.Microsecond

// central models the fully centralized comparison arm: one controller
// seated behind the core computes whole-path allocations. Requests
// serialize at the single box, so each carries the controller's
// queueing delay on top of the propagation to it and back.
type central struct {
	busyUntil sim.Time
}

// centralSync charges the centralized arm its steady-state
// bookkeeping: every epoch the controller refreshes fabric link state
// (one update per directed link) and re-syncs every live allocation.
// This is what makes central control bytes grow with fabric size even
// at a fixed workload, while the hierarchy's distributed state needs
// no such sweep.
func (sys *System) centralSync() {
	if sys.inflight > 0 {
		n := int64(len(sys.net.Links)) + sys.inflight
		sys.Stats.SyncMessages += n
		sys.countMessages(n)
	}
}

// refreshCentral asks the controller for a whole-path allocation in a
// single exchange: one request climbs to the controller, every link
// arbitrator on both halves of the path is consulted there, and one
// response returns. No pruning and no delegation — the controller
// needs full path state — and the exchange pays the serialization of
// a single box on top of the longer round trip.
func (c *Client) refreshCentral(key int64, demand netem.BitRate) {
	sys := c.sys
	ctr := sys.central
	start := sys.eng.Now()
	stops := c.stops(true)
	// The controller sits behind the core: the request travels the
	// host's full upward hop count, every stop's depth, to reach it.
	hops := stops[0].depth
	fi := sys.Faults
	if fi != nil && fi.DropRequest() {
		sys.o.reqDrop.Inc()
		sys.Rec.Ctrl(trace.CtrlSpan{Flow: c.flow, SrcSide: true, Start: start, Outcome: trace.CtrlReqDropped})
		return
	}

	worst, _, dead := c.update(stops, key, demand, false)
	sys.countClimb(hops)
	if dead {
		sys.o.dead.Inc()
		sys.Rec.Ctrl(trace.CtrlSpan{Flow: c.flow, SrcSide: true, Level: hops, Start: start, Outcome: trace.CtrlDead})
		return
	}

	// Controller serialization: the request arrives after the one-way
	// propagation, waits for the box to drain earlier work, then holds
	// it for the per-request service time.
	arrive := start.Add(sim.Duration(hops) * sys.P.CtrlPerHop)
	begin := arrive
	if ctr.busyUntil > begin {
		begin = ctr.busyUntil
	}
	ctr.busyUntil = begin.Add(centralPerRequest)
	sys.o.centralQ.Observe(int64(begin.Sub(arrive)))
	latency := ctr.busyUntil.Sub(start) + sim.Duration(hops)*sys.P.CtrlPerHop
	if fi != nil {
		if fi.DropResponse() {
			sys.o.respDrop.Inc()
			sys.Rec.Ctrl(trace.CtrlSpan{Flow: c.flow, SrcSide: true, Level: hops, Start: start, Outcome: trace.CtrlRespDropped})
			return
		}
		latency += fi.CtrlExtraDelay()
	}
	sys.o.rtt[sys.lvl(hops)].Observe(int64(latency))
	sys.Rec.Ctrl(trace.CtrlSpan{Flow: c.flow, SrcSide: true, Level: hops, Start: start, Latency: latency, Outcome: trace.CtrlOK})
	// One response covers the whole path: both halves land at once.
	sys.respond(c, worst, true, true, latency)
}

// releaseCentral deregisters the flow from every path link in one
// one-way message to the controller. A lost release cleans nothing —
// the controller's leases expire the entries.
func (c *Client) releaseCentral() {
	sys := c.sys
	if sys.Faults != nil && sys.Faults.DropRequest() {
		sys.countRelease(0)
		return
	}
	stops := c.stops(true)
	for _, st := range stops {
		st.arb.Remove(c.flow)
	}
	sys.countRelease(stops[0].depth)
}
