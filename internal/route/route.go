// Package route is the fabric's reactive routing control loop: the
// piece that turns the leaf-spine route tables from a frozen ECMP hash
// into something that answers the network.
//
// Two control loops share one Controller:
//
//   - Failure rerouting: the fault injector reports link up/down
//     transitions (Injector.OnLinkState) and the controller immediately
//     repairs the affected tables. A leaf→spine uplink outage is
//     handled synchronously — the flows hashed onto the dead uplink
//     detour to surviving spines before the next packet routes. A
//     spine→leaf downlink outage is observed at the spine; every leaf
//     learns of it one control-propagation delay (the fabric's link
//     delay) later and detours its traffic toward the orphaned rack
//     around that spine.
//
//   - Traffic engineering: each leaf runs a periodic epoch timer that
//     reads its uplink utilization (Port.BusyTime deltas) and, when the
//     hottest and coldest live spines diverge by more than the
//     hysteresis band, pins one ECMP bucket from hot to cold. A dwell
//     time per bucket stops the loop from thrashing a bucket back and
//     forth across epochs.
package route

import (
	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/trace"
)

// Control-loop parameters.
const (
	// DefaultEpoch is the TE measurement window.
	DefaultEpoch = sim.Millisecond
	// hysteresis is the minimum utilization gap (fraction of line
	// rate) between the hottest and coldest spine before a bucket
	// moves.
	hysteresis = 0.10
	// dwell is the minimum time between moves of one bucket.
	dwell = 5 * sim.Millisecond
)

// Config selects which control loops run and their TE epoch.
// The zero value disables the controller entirely.
type Config struct {
	// Reroute reacts to link failures (both directions of the
	// leaf-spine mesh).
	Reroute bool
	// TE runs the periodic hotspot traffic-engineering epoch.
	TE bool
	// Epoch is the TE decision period (0 = DefaultEpoch).
	Epoch sim.Duration
}

// Enabled reports whether any control loop is requested.
func (c Config) Enabled() bool { return c.Reroute || c.TE }

// Params wires a Controller into one run.
type Params struct {
	Net *topology.Network
	Cfg Config
	Eng *sim.Engine
	// Reg and Rec are the run's observability registry and flight
	// recorder; either may be nil.
	Reg *obs.Registry
	Rec *trace.Recorder
}

// Controller owns the per-leaf control state. One per run.
type Controller struct {
	p     Params
	epoch sim.Duration // the TE period: Cfg.Epoch, or DefaultEpoch
	racks []*rackCtl

	o struct {
		linkDown, linkUp  *obs.Counter
		reroutes          *obs.Counter
		teEpochs, teMoves *obs.Counter
	}
}

// rackCtl is one leaf's share of the controller.
type rackCtl struct {
	*Controller
	rack int
	tbl  *topology.RouteTable

	// upPorts[s] transmits on the leaf→spine s uplink.
	upPorts []*netem.Port
	// lastBusy[s] is BusyTime at the previous TE epoch boundary.
	lastBusy []sim.Duration
	// lastMoved[b] is when TE last pinned bucket b (0 = never).
	lastMoved []sim.Time
}

// Attach builds the controller and arms its loops: failure rerouting
// activates as soon as the caller points Injector.OnLinkState at
// LinkState, and the TE epoch timers are scheduled here, one per leaf
// in rack order (the order fixes their event order). Returns nil
// when the config is disabled or the fabric has no route tables (tree
// topologies route single-path; there is nothing to steer).
func Attach(p Params) *Controller {
	if !p.Cfg.Enabled() || !p.Net.IsLeafSpine() || p.Net.RouteTable(0) == nil {
		return nil
	}
	c := &Controller{p: p, epoch: p.Cfg.Epoch}
	if c.epoch <= 0 {
		c.epoch = DefaultEpoch
	}
	c.o.linkDown = p.Reg.Counter("route/link_down")
	c.o.linkUp = p.Reg.Counter("route/link_up")
	c.o.reroutes = p.Reg.Counter("route/reroutes")
	c.o.teEpochs = p.Reg.Counter("route/te_epochs")
	c.o.teMoves = p.Reg.Counter("route/te_moves")
	for r := 0; r < p.Net.Cfg.Racks; r++ {
		rc := &rackCtl{Controller: c, rack: r, tbl: p.Net.RouteTable(r)}
		for _, l := range p.Net.SpineUpLinks(r) {
			rc.upPorts = append(rc.upPorts, l.Port)
		}
		rc.lastBusy = make([]sim.Duration, len(rc.upPorts))
		rc.lastMoved = make([]sim.Time, rc.tbl.Buckets())
		c.racks = append(c.racks, rc)
	}
	if p.Cfg.TE && c.racks[0].tbl.Spines() > 1 {
		for _, rc := range c.racks {
			p.Eng.Schedule(c.epoch, rc.tick)
		}
	}
	return c
}

// LinkState is the fault-injector subscription point. Host edge links
// are not reroutable (a host has one NIC) and are left to the
// transports' loss recovery.
func (c *Controller) LinkState(link int, down bool) {
	if c == nil || !c.p.Cfg.Reroute {
		return
	}
	info, ok := c.p.Net.LeafSpineLinkInfo(link)
	if !ok {
		return
	}
	if info.Up {
		// Leaf→spine uplink: the leaf owns the transmitting port and
		// repairs its table in place.
		c.racks[info.Rack].uplinkState(info.Spine, down)
		return
	}
	// Spine→leaf downlink: observed at the spine. Every leaf must
	// detour its traffic toward the orphaned rack, so fan the update
	// out, in rack order.
	q, s := info.Rack, info.Spine
	for _, rc := range c.racks {
		c.p.Eng.Schedule(c.p.Net.Cfg.LinkDelay, func() { rc.dstState(q, s, down) })
	}
}

// uplinkState applies a leaf→spine uplink transition to this leaf's
// table.
func (rc *rackCtl) uplinkState(s int, down bool) {
	moved := rc.tbl.SetUplink(s, down)
	kind := trace.RouteLinkUp
	if down {
		kind = trace.RouteLinkDown
		rc.o.linkDown.Inc()
	} else {
		rc.o.linkUp.Inc()
	}
	rc.o.reroutes.Add(int64(moved))
	rc.p.Rec.Route(trace.RouteEvent{
		At: rc.p.Eng.Now(), Rack: rc.rack, Kind: kind, Spine: s, Arg: int64(moved),
	})
}

// dstState applies a spine s → rack q downlink transition to this
// leaf's table (every leaf detours traffic toward q off s). The trace
// event and link counters are recorded once, at the orphaned rack, so
// a downlink flap reads as one transition, not one per leaf.
func (rc *rackCtl) dstState(q, s int, down bool) {
	moved := rc.tbl.SetDstDown(q, s, down)
	rc.o.reroutes.Add(int64(moved))
	if rc.rack == q {
		kind := trace.RouteLinkUp
		if down {
			kind = trace.RouteLinkDown
			rc.o.linkDown.Inc()
		} else {
			rc.o.linkUp.Inc()
		}
		rc.p.Rec.Route(trace.RouteEvent{
			At: rc.p.Eng.Now(), Rack: rc.rack, Kind: kind, Spine: s, Arg: int64(moved),
		})
	}
}

// tick is one TE epoch on one leaf: measure, maybe move one bucket,
// re-arm.
func (rc *rackCtl) tick() {
	rc.o.teEpochs.Inc()
	t := rc.tbl
	hot, cold := -1, -1
	var hotU, coldU float64
	for s := 0; s < t.Spines(); s++ {
		busy := rc.upPorts[s].BusyTime()
		u := float64(busy-rc.lastBusy[s]) / float64(rc.epoch)
		rc.lastBusy[s] = busy
		if !t.SpineUp(s) {
			continue
		}
		if hot == -1 || u > hotU {
			hot, hotU = s, u
		}
		if cold == -1 || u < coldU {
			cold, coldU = s, u
		}
	}
	if hot != -1 && cold != -1 && hot != cold && hotU-coldU > hysteresis {
		now := rc.p.Eng.Now()
		for b := 0; b < t.Buckets(); b++ {
			if t.BucketSpine(b) != hot {
				continue
			}
			if rc.lastMoved[b] != 0 && now.Sub(rc.lastMoved[b]) < dwell {
				continue
			}
			t.SetOverride(b, cold)
			rc.lastMoved[b] = now
			rc.o.teMoves.Inc()
			rc.p.Rec.Route(trace.RouteEvent{
				At: now, Rack: rc.rack, Kind: trace.RouteTEMove, Spine: cold, Arg: int64(b),
			})
			break
		}
	}
	rc.p.Eng.Schedule(rc.epoch, rc.tick)
}
