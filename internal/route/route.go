// Package route is the fabric's reactive routing control loop: the
// piece that turns the leaf-spine route tables from a frozen ECMP hash
// into something that answers link failures.
//
// The fault injector reports link up/down transitions
// (Injector.OnLinkState) and the controller repairs the affected
// tables. A leaf→spine uplink outage is handled synchronously — the
// flows hashed onto the dead uplink detour to surviving spines before
// the next packet routes. A spine→leaf downlink outage is observed at
// the spine; every leaf learns of it one control-propagation delay
// (the fabric's link delay) later and detours its traffic toward the
// orphaned rack around that spine.
package route

import (
	"pase/internal/obs"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/trace"
)

// Params wires a Controller into one run.
type Params struct {
	Net *topology.Network
	Eng *sim.Engine
	// Reg and Rec are the run's observability registry and flight
	// recorder; either may be nil.
	Reg *obs.Registry
	Rec *trace.Recorder
}

// Controller repairs the leaves' route tables. One per run.
type Controller struct {
	Params
	linkDown, linkUp *obs.Counter
}

// Attach builds the controller. Failure rerouting activates as soon as
// the caller points Injector.OnLinkState at LinkState; Attach itself
// schedules nothing. Returns nil when the fabric has no route tables
// (tree topologies route single-path; there is nothing to steer).
func Attach(p Params) *Controller {
	if p.Net.RouteTable(0) == nil {
		return nil
	}
	return &Controller{Params: p, linkDown: p.Reg.Counter("route/link_down"), linkUp: p.Reg.Counter("route/link_up")}
}

// LinkState is the fault-injector subscription point. Host edge links
// are not reroutable (a host has one NIC) and are left to the
// transports' loss recovery.
func (c *Controller) LinkState(link int, down bool) {
	if c == nil {
		return
	}
	info, ok := c.Net.LeafSpineLinkInfo(link)
	if !ok {
		return
	}
	r, s := info.Rack, info.Spine
	if info.Up {
		// Leaf→spine uplink: the leaf owns the transmitting port and
		// repairs its table in place.
		c.Net.RouteTable(r).SetUplink(s, down)
		c.record(r, s, down)
		return
	}
	// Spine→leaf downlink: observed at the spine. Every leaf must
	// detour its traffic toward the orphaned rack r, so fan the update
	// out, in rack order. The trace event and link counters are
	// recorded once, at r, so a downlink flap reads as one transition,
	// not one per leaf.
	for q := 0; q < c.Net.Cfg.Racks; q++ {
		c.Eng.Schedule(c.Net.Cfg.LinkDelay, func() {
			c.Net.RouteTable(q).SetDstDown(r, s, down)
			if q == r {
				c.record(r, s, down)
			}
		})
	}
}

// record counts one link transition at leaf r and hands it to the
// flight recorder.
func (c *Controller) record(r, s int, down bool) {
	kind := trace.RouteLinkUp
	if down {
		kind = trace.RouteLinkDown
		c.linkDown.Inc()
	} else {
		c.linkUp.Inc()
	}
	c.Rec.Route(trace.RouteEvent{At: c.Eng.Now(), Rack: r, Kind: kind, Spine: s})
}
