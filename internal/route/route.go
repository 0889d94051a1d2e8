// Package route is the fabric's reactive routing control loop: the
// piece that turns the leaf-spine route tables from a frozen ECMP hash
// into something that answers the network.
//
// Two control loops share one Controller:
//
//   - Failure rerouting: the fault injector reports link up/down
//     transitions (Injector.OnLinkState) and the controller immediately
//     repairs the affected tables. A leaf→spine uplink outage is
//     handled synchronously on the leaf's shard — the flows hashed onto
//     the dead uplink detour to surviving spines before the next packet
//     routes. A spine→leaf downlink outage is observed on the spine's
//     shard; every leaf learns of it one control-propagation delay
//     later (Params.Deliver) and detours its traffic toward the
//     orphaned rack around that spine.
//
//   - Traffic engineering: each leaf runs a periodic epoch timer that
//     reads its uplink utilization (Port.BusyTime deltas) and, when the
//     hottest and coldest live spines diverge by more than the
//     hysteresis band, pins one ECMP bucket from hot to cold. A dwell
//     time per bucket stops the loop from thrashing a bucket back and
//     forth across epochs.
//
// Determinism: all decisions read only state owned by the shard they
// run on, cross-shard updates ride the conservative-lookahead handoff
// with explicitly captured rank slots (Params.Deliver), and the TE
// inputs (BusyTime) are themselves byte-identical between serial and
// sharded runs — so a routed run keeps the serial-equals-sharded
// property the engine guarantees.
package route

import (
	"fmt"

	"pase/internal/check"
	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/pkt"
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
	// walkTTL bounds the route-validity forwarding walks.
	walkTTL = 8
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

// Params wires a Controller into one run. The per-rack accessors let
// sharded runs hand each leaf its own shard's engine, registry,
// checker and recorder; serial runs return the same instance for every
// rack.
type Params struct {
	Net *topology.Network
	Cfg Config

	// EngineOf returns the engine that owns rack r (its leaf's shard).
	EngineOf func(rack int) *sim.Engine
	// Deliver runs fn on dstRack's shard one control-propagation delay
	// after now, from's shard being the caller. Serial runs Schedule on
	// the one engine; sharded runs hand off with a captured rank slot.
	// Both must consume exactly one rank child slot per call so event
	// order matches between the two.
	Deliver func(from netem.Node, dstRack int, fn func())
	// ChkOf returns rack r's invariant checker (nil-safe).
	ChkOf func(rack int) *check.Checker
	// RegOf returns rack r's observability registry (nil-safe).
	RegOf func(rack int) *obs.Registry
	// Record emits a routing event into rack r's shard recorder; nil
	// when the run is untraced.
	Record func(rack int, ev trace.RouteEvent)
}

// Controller owns the per-leaf control state. One per run.
type Controller struct {
	p     Params
	epoch sim.Duration // the TE period: Cfg.Epoch, or DefaultEpoch
	racks []*rackCtl
}

// rackCtl is one leaf's share of the controller; touched only from
// that leaf's shard.
type rackCtl struct {
	c    *Controller
	rack int
	tbl  *topology.RouteTable
	eng  *sim.Engine
	chk  *check.Checker

	// upPorts[s] transmits on the leaf→spine s uplink.
	upPorts []*netem.Port
	// lastBusy[s] is BusyTime at the previous TE epoch boundary.
	lastBusy []sim.Duration
	// lastMoved[b] is when TE last pinned bucket b (0 = never).
	lastMoved []sim.Time

	o struct {
		linkDown, linkUp  *obs.Counter
		reroutes          *obs.Counter
		teEpochs, teMoves *obs.Counter
	}
}

// Attach builds the controller and arms its loops: failure rerouting
// activates as soon as the caller points Injector.OnLinkState at
// LinkState, and the TE epoch timers are scheduled here, one per leaf
// in rack order (the order fixes their setup rank slots). Returns nil
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
	racks := p.Net.Cfg.Racks
	for r := 0; r < racks; r++ {
		rc := &rackCtl{
			c:    c,
			rack: r,
			tbl:  p.Net.RouteTable(r),
			eng:  p.EngineOf(r),
			chk:  p.ChkOf(r),
		}
		for _, l := range p.Net.SpineUpLinks(r) {
			rc.upPorts = append(rc.upPorts, l.Port)
		}
		rc.lastBusy = make([]sim.Duration, len(rc.upPorts))
		rc.lastMoved = make([]sim.Time, rc.tbl.Buckets())
		reg := p.RegOf(r)
		rc.o.linkDown = reg.Counter("route/link_down")
		rc.o.linkUp = reg.Counter("route/link_up")
		rc.o.reroutes = reg.Counter("route/reroutes")
		rc.o.teEpochs = reg.Counter("route/te_epochs")
		rc.o.teMoves = reg.Counter("route/te_moves")
		c.racks = append(c.racks, rc)
	}
	if p.Cfg.TE && c.racks[0].tbl.Spines() > 1 {
		for _, rc := range c.racks {
			rc.eng.Schedule(c.epoch, rc.tick)
		}
	}
	return c
}

// LinkState is the fault-injector subscription point: it runs on the
// shard that transmits on the link (the injector's engine). Host edge
// links are not reroutable (a host has one NIC) and are left to the
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
		// Leaf→spine uplink: the leaf owns the transmitting port, so we
		// are on its shard and can repair its table in place.
		c.racks[info.Rack].uplinkState(info.Spine, down)
		return
	}
	// Spine→leaf downlink: observed on the spine's shard. Every leaf
	// must detour its traffic toward the orphaned rack, so fan the
	// update out — rack order fixes the rank slots the deliveries take.
	spine := c.p.Net.Spines[info.Spine]
	q, s := info.Rack, info.Spine
	for r := range c.racks {
		rc := c.racks[r]
		c.p.Deliver(spine, r, func() { rc.dstState(q, s, down) })
	}
}

// record emits ev into the rack's shard recorder if the run traces.
func (rc *rackCtl) record(ev trace.RouteEvent) {
	if rc.c.p.Record != nil {
		rc.c.p.Record(rc.rack, ev)
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
	rc.record(trace.RouteEvent{
		At: rc.eng.Now(), Rack: rc.rack, Kind: kind, Spine: s, Arg: int64(moved),
	})
	rc.validate()
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
		rc.record(trace.RouteEvent{
			At: rc.eng.Now(), Rack: rc.rack, Kind: kind, Spine: s, Arg: int64(moved),
		})
	}
	rc.validate()
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
		u := float64(busy-rc.lastBusy[s]) / float64(rc.c.epoch)
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
		now := rc.eng.Now()
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
			rc.record(trace.RouteEvent{
				At: now, Rack: rc.rack, Kind: trace.RouteTEMove, Spine: cold, Arg: int64(b),
			})
			rc.validate()
			break
		}
	}
	rc.eng.Schedule(rc.c.epoch, rc.tick)
}

// validate re-verifies the table's routing invariants after an edit:
// no bucket resolves onto a dead path while a live spine exists, and a
// TTL-bounded walk from the leaf reaches every foreign rack without
// looping. Skipped entirely when the run has no checker.
func (rc *rackCtl) validate() {
	if !rc.chk.Enabled() {
		return
	}
	t := rc.tbl
	where := fmt.Sprintf("leaf%d/routes", rc.rack)
	for q := 0; q < rc.c.p.Net.Cfg.Racks; q++ {
		if q == rc.rack {
			continue
		}
		avail := 0
		for s := 0; s < t.Spines(); s++ {
			if t.Avail(q, s) {
				avail++
			}
		}
		for b := 0; b < t.Buckets(); b++ {
			if s := t.PickBucket(q, b); !t.Avail(q, s) {
				rc.chk.RouteValid(where, q, b, s, avail)
			}
		}
		rc.walk(where, q)
	}
}

// walk traces one sample flow's forwarding path toward rack q through
// the switches' resolution tables (off the data path — nothing is
// sent) and reports a route_loop violation if it cycles or dead-ends.
// Spine resolution state is static, so reading it cross-shard is safe.
func (rc *rackCtl) walk(where string, q int) {
	net := rc.c.p.Net
	dst := net.Hosts[q*net.Cfg.HostsPerRack].ID()
	const flow = pkt.FlowID(1)
	var node netem.Node = net.ToRs[rc.rack]
	hops, reached := 0, false
	for hops < walkTTL {
		sw, ok := node.(*netem.Switch)
		if !ok {
			break
		}
		pt := sw.NextPort(dst, flow)
		if pt == nil {
			break
		}
		node = pt.Peer().Owner()
		hops++
		if node.ID() == dst {
			reached = true
			break
		}
	}
	rc.chk.RouteLoop(where, uint64(flow), q, hops, walkTTL, reached)
}
