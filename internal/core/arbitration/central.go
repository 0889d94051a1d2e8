package arbitration

import "pase/internal/sim"

// centralPerRequest is the controller's per-request service time:
// roughly what a tuned single-box scheduler spends computing one
// whole-path allocation (Shah & Xie report handling on the order of
// 10^6 allocations per second).
const centralPerRequest = 1 * sim.Microsecond

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

// centralLatency is a central exchange's round trip: the request
// travels the host's hops up to the controller, waits for the single
// box to drain earlier work, holds it for the per-request service time,
// and the response travels the hops back.
func (sys *System) centralLatency(start sim.Time, hops int) sim.Duration {
	arrive := start.Add(sim.Duration(hops) * sys.P.CtrlPerHop)
	begin := max(arrive, sys.busyUntil)
	sys.busyUntil = begin.Add(centralPerRequest)
	sys.o.centralQ.Observe(int64(begin.Sub(arrive)))
	return sys.busyUntil.Sub(start) + sim.Duration(hops)*sys.P.CtrlPerHop
}
