package faults

import (
	"fmt"
	"sort"

	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// streamLabel separates the fault RNG stream from every other seeded
// stream in a run (the workload uses runSeed+1 directly).
const streamLabel = 0xfa017

// Injector executes a Plan against one run: it installs port hooks for
// link outages and packet loss, schedules crash/restart events on the
// event heap, and answers the arbitration system's ControlFaults
// queries. All randomness comes from private streams derived from
// (runSeed, plan.Seed), so the workload stream never observes the
// plan. Each bound link draws from its own stream, keyed by link ID
// alone — loss draws on one link cannot perturb another link's
// sequence, whatever order the links transmit in.
type Injector struct {
	eng     *sim.Engine
	plan    *Plan
	runSeed uint64
	rng     *sim.Rand // control-plane stream (stream index 0)

	// ports maps link ID -> transmitting port; bound keeps the IDs
	// sorted so link=-1 rules fire in a deterministic order.
	ports map[int]*netem.Port
	bound []int
	// blocked counts overlapping outages per link; the transmitter is
	// paused while > 0.
	blocked map[int]int

	// OnCrash / OnRestart are wired to the arbitration system's Crash
	// and Restore (link -1 = all arbitrators). Nil when the run has no
	// control plane (non-PASE protocols).
	OnCrash   func(link int)
	OnRestart func(link int)

	// OnLinkState fires on a link's up/down edges — once when the
	// first overlapping outage takes the link down and once when the
	// last one lifts, before queued packets resume draining. The
	// routing control loop subscribes here.
	OnLinkState func(link int, down bool)

	// reg backs the lazily created per-link blackhole counters (nil
	// without Instrument).
	reg            *obs.Registry
	blackholedLink map[int]*obs.Counter

	o struct {
		linkDown, linkUp            *obs.Counter
		dropData, dropAck, dropCtrl *obs.Counter
		corrupt                     *obs.Counter
		ctrlReqDrop, ctrlRespDrop   *obs.Counter
		ctrlDelayed                 *obs.Counter
		arbCrash, arbRestart        *obs.Counter
		blackholed                  *obs.Counter
	}
}

// NewInjector builds the injector for a validated plan. runSeed is the
// run's workload seed; the fault stream is split off it so the same
// plan replays identically under the same seed and re-rolls under a
// different plan Seed.
func NewInjector(eng *sim.Engine, plan *Plan, runSeed uint64) *Injector {
	return &Injector{
		eng:     eng,
		plan:    plan,
		runSeed: runSeed,
		rng:     faultStream(runSeed, plan.Seed, 0),
		ports:   make(map[int]*netem.Port),
		blocked: make(map[int]int),
	}
}

// faultStream derives an independent RNG stream for (runSeed,
// planSeed, index) from scratch — no shared parent state, so the
// stream a consumer gets never depends on how many other streams were
// created first. Index 0 is the control-plane stream; link i uses
// index i+1.
func faultStream(runSeed, planSeed, index uint64) *sim.Rand {
	return sim.NewRand(runSeed).Split(streamLabel ^ planSeed).Split(index)
}

// Instrument registers the faults/* counters. Safe to skip (all
// counters are nil-safe no-ops then).
func (in *Injector) Instrument(reg *obs.Registry) {
	in.o.linkDown = reg.Counter("faults/link_down")
	in.o.linkUp = reg.Counter("faults/link_up")
	in.o.dropData = reg.Counter("faults/drop_data")
	in.o.dropAck = reg.Counter("faults/drop_ack")
	in.o.dropCtrl = reg.Counter("faults/drop_ctrl")
	in.o.corrupt = reg.Counter("faults/corrupt")
	in.o.ctrlReqDrop = reg.Counter("faults/ctrl_req_drop")
	in.o.ctrlRespDrop = reg.Counter("faults/ctrl_resp_drop")
	in.o.ctrlDelayed = reg.Counter("faults/ctrl_delayed")
	in.o.arbCrash = reg.Counter("faults/arb_crash")
	in.o.arbRestart = reg.Counter("faults/arb_restart")
	in.o.blackholed = reg.Counter("faults/blackholed")
	in.reg = reg
}

// linkBlackholed returns (creating lazily) the per-link blackhole
// counter, so run manifests name exactly the links that blackholed.
func (in *Injector) linkBlackholed(link int) *obs.Counter {
	if in.blackholedLink == nil {
		in.blackholedLink = make(map[int]*obs.Counter)
	}
	c, ok := in.blackholedLink[link]
	if !ok {
		c = in.reg.Counter(fmt.Sprintf("faults/blackholed/link%d", link))
		in.blackholedLink[link] = c
	}
	return c
}

// BindPort attaches the injector to one directed link's transmitting
// port. Only ports some rule can actually touch get a hook, so
// unaffected links keep the zero-overhead fast path.
func (in *Injector) BindPort(link int, pt *netem.Port) {
	in.ports[link] = pt
	in.bound = append(in.bound, link)
	sort.Ints(in.bound)

	hooked := false
	var rules []*LossFault
	for i := range in.plan.Loss {
		r := &in.plan.Loss[i]
		if r.Link == -1 || r.Link == link {
			rules = append(rules, r)
		}
	}
	for _, r := range in.plan.Links {
		if r.Link == -1 || r.Link == link {
			hooked = true
		}
	}
	if hooked || len(rules) > 0 {
		pt.Faults = &portHook{
			in:    in,
			link:  link,
			rules: rules,
			rng:   faultStream(in.runSeed, in.plan.Seed, uint64(link)+1),
		}
	}
}

// Arm schedules every timed rule (outages and crashes) on the event
// heap. Call once, after all BindPort calls, before the run starts.
func (in *Injector) Arm() {
	for _, r := range in.plan.Links {
		r := r
		var fire func(at sim.Duration)
		fire = func(at sim.Duration) {
			in.eng.At(sim.Time(at), func() { in.setDown(r.Link, true) })
			in.eng.At(sim.Time(at+r.For), func() { in.setDown(r.Link, false) })
			if r.Every > 0 {
				next := at + r.Every
				in.eng.At(sim.Time(at), func() { fire(next) })
			}
		}
		fire(r.At)
	}
	for _, r := range in.plan.Crashes {
		r := r
		var fire func(at sim.Duration)
		fire = func(at sim.Duration) {
			in.eng.At(sim.Time(at), func() { in.crash(r.Link) })
			if r.For > 0 {
				in.eng.At(sim.Time(at+r.For), func() { in.restart(r.Link) })
			}
			if r.Every > 0 {
				next := at + r.Every
				in.eng.At(sim.Time(at), func() { fire(next) })
			}
		}
		fire(r.At)
	}
}

// eachLink visits the bound links a rule targets, in sorted ID order.
func (in *Injector) eachLink(link int, fn func(id int, pt *netem.Port)) {
	if link != -1 {
		if pt, ok := in.ports[link]; ok {
			fn(link, pt)
		}
		return
	}
	for _, id := range in.bound {
		fn(id, in.ports[id])
	}
}

func (in *Injector) setDown(link int, down bool) {
	in.eachLink(link, func(id int, pt *netem.Port) {
		if down {
			in.blocked[id]++
			in.o.linkDown.Inc()
			if in.blocked[id] == 1 && in.OnLinkState != nil {
				in.OnLinkState(id, true)
			}
			return
		}
		in.blocked[id]--
		in.o.linkUp.Inc()
		if in.blocked[id] == 0 {
			if in.OnLinkState != nil {
				in.OnLinkState(id, false)
			}
			pt.Kick()
		}
	})
}

func (in *Injector) crash(link int) {
	in.o.arbCrash.Inc()
	if in.OnCrash != nil {
		in.OnCrash(link)
	}
}

func (in *Injector) restart(link int) {
	in.o.arbRestart.Inc()
	if in.OnRestart != nil {
		in.OnRestart(link)
	}
}

// now returns the current time as an offset for window checks.
func (in *Injector) now() sim.Duration { return sim.Duration(in.eng.Now()) }

// DropRequest implements arbitration.ControlFaults: one draw per
// active ctrl rule for the request leg of a remote exchange.
func (in *Injector) DropRequest() bool { return in.dropCtrl(in.o.ctrlReqDrop) }

// DropResponse implements arbitration.ControlFaults for the response
// leg.
func (in *Injector) DropResponse() bool { return in.dropCtrl(in.o.ctrlRespDrop) }

func (in *Injector) dropCtrl(c *obs.Counter) bool {
	now := in.now()
	for i := range in.plan.Ctrl {
		r := &in.plan.Ctrl[i]
		if r.Drop > 0 && activeWindow(now, r.From, r.To) && in.rng.Float64() < r.Drop {
			c.Inc()
			return true
		}
	}
	return false
}

// CtrlExtraDelay implements arbitration.ControlFaults: extra one-way
// latency added to each surviving control message.
func (in *Injector) CtrlExtraDelay() sim.Duration {
	var extra sim.Duration
	now := in.now()
	for i := range in.plan.Ctrl {
		r := &in.plan.Ctrl[i]
		if r.Delay > 0 && activeWindow(now, r.From, r.To) {
			extra += r.Delay
		}
	}
	if extra > 0 {
		in.o.ctrlDelayed.Inc()
	}
	return extra
}

// portHook is the per-port netem.PortFaults implementation.
type portHook struct {
	in    *Injector
	link  int
	rules []*LossFault
	// rng is the link's private loss/corruption stream.
	rng *sim.Rand
}

// Blocked pauses the transmitter while an outage holds the link down.
func (h *portHook) Blocked(*netem.Port) bool { return h.in.blocked[h.link] > 0 }

// Blackholed implements netem.BlackholeObserver: a packet was dropped
// at the egress queue because this link's outage had backed it up —
// distinguishable in the manifest from congestion overflow.
func (h *portHook) Blackholed(*netem.Port, *pkt.Packet) {
	h.in.o.blackholed.Inc()
	h.in.linkBlackholed(h.link).Inc()
}

// Lose discards or corrupts an already-serialized packet. Rules draw in
// plan order; zero-probability fields never consume a draw, so a
// zero-rate rule cannot perturb the fault stream.
func (h *portHook) Lose(_ *netem.Port, p *pkt.Packet) bool {
	now := h.in.now()
	for _, r := range h.rules {
		if !r.Class.Matches(p.Type) || !activeWindow(now, r.From, r.To) {
			continue
		}
		if r.Rate > 0 && h.rng.Float64() < r.Rate {
			h.dropCounter(p.Type).Inc()
			return true
		}
		if r.Corrupt > 0 && h.rng.Float64() < r.Corrupt {
			h.in.o.corrupt.Inc()
			return true
		}
	}
	return false
}

func (h *portHook) dropCounter(t pkt.Type) *obs.Counter {
	switch t {
	case pkt.Data:
		return h.in.o.dropData
	case pkt.Ack:
		return h.in.o.dropAck
	default:
		return h.in.o.dropCtrl
	}
}
