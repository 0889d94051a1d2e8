// Package endhost implements PASE's end-host transport (§3.2 of the
// paper): rate control that is guided by the arbitration control
// plane's (priority queue, reference rate) output — Algorithm 2 — plus
// the loss-recovery changes low-priority flows need: large timeouts
// with probe packets instead of data retransmissions, and a reorder
// guard when a flow is promoted between priority queues.
package endhost

import (
	"pase/internal/core/arbitration"
	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/trace"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
)

// PASE transport parameters (Table 3).
const (
	// minRTOTop is the timeout floor for flows in the top queue;
	// minRTOLow for every other queue.
	minRTOTop = 10 * sim.Millisecond
	minRTOLow = 200 * sim.Millisecond
	// refreshRTTs is the arbitration refresh period in flow RTTs.
	refreshRTTs = 1
	// retryCap bounds the exponential backoff of arbitration-request
	// retries after missed responses (§3.3: soft-state refreshes double
	// their period per miss up to this cap).
	retryCap = 2 * sim.Millisecond
)

// Config holds the PASE transport's switches.
type Config struct {
	// Probing replaces data retransmissions with header-only probes
	// for flows in lower-priority queues, and parks bottom-queue
	// flows on one probe per RTT instead of one data packet (§4.3.2).
	Probing bool
	// UseRefRate applies Rref to the window of top-queue flows;
	// disabling it yields the PASE-DCTCP ablation of Figure 13a.
	UseRefRate bool
	// TaskAware switches the arbitration criterion from remaining
	// flow size to the flow's task id (Baraat-style FIFO across
	// tasks) for flows that carry one — the alternative §3.1.1 of the
	// paper names explicitly. Deadlines still take precedence.
	TaskAware bool
	// FallbackAfter is how long a flow tolerates arbitration silence —
	// reusing its previous (queue, Rref) allocation — before it falls
	// back to self-adjusting DCTCP-style rate control in the lowest
	// priority queue. The default is about one arbitration lease
	// (8 epochs): past that the arbitrators have expired the flow's
	// soft state anyway, so the cached allocation means nothing.
	// 0 disables the fallback.
	FallbackAfter sim.Duration
}

// DefaultConfig returns the paper's parameterization.
func DefaultConfig() Config {
	return Config{
		Probing:       true,
		UseRefRate:    true,
		FallbackAfter: sim.Millisecond,
	}
}

// Transport binds the PASE end-host protocol to an arbitration system.
type Transport struct {
	Sys *arbitration.System
	Cfg Config

	// Rec, when set, is the flight recorder the flows' arbitration
	// story lands in, off the per-packet hot path: the grant (the first
	// usable allocation adopted), every epoch (each switch onto a
	// priority queue, the grant's and the fallback's included), and the
	// fallback and resync marks. Nil records nothing.
	Rec *trace.Recorder

	o struct {
		retries   *obs.Counter
		reuse     *obs.Counter
		fallbacks *obs.Counter
		resyncs   *obs.Counter
		waitCtrl  *obs.Histogram
	}
}

// Instrument registers the degradation-path counters: arbitration
// retries, allocation reuses across missed responses, DCTCP fallbacks
// and post-recovery re-synchronizations — plus the wait-for-control
// histogram (time from flow arrival to first transmission clearance,
// the critical-path "waiting for control" term). Safe to skip (nil
// counters are no-ops).
func (t *Transport) Instrument(reg *obs.Registry) {
	t.o.retries = reg.Counter("pase/arb_retries")
	t.o.reuse = reg.Counter("pase/arb_reuse")
	t.o.fallbacks = reg.Counter("pase/fallbacks")
	t.o.resyncs = reg.Counter("pase/resyncs")
	t.o.waitCtrl = reg.Histogram("pase/wait_ctrl_ns")
}

// Attach installs PASE on every stack of the driver.
func Attach(d *transport.Driver, sys *arbitration.System, cfg Config) *Transport {
	t := &Transport{Sys: sys, Cfg: cfg}
	newControl := t.NewControl
	for _, st := range d.Stacks {
		st.NewControl = newControl
	}
	prev := d.OnFlowDone
	d.OnFlowDone = func(s *transport.Sender) {
		if c, ok := s.Control().(*control); ok {
			c.shutdown()
		}
		if prev != nil {
			prev(s)
		}
	}
	return t
}

// NewControl implements the transport.Control factory; the control,
// its client included, goes round with its sender record.
func (t *Transport) NewControl(s *transport.Sender) transport.Control {
	c := transport.ReuseControl[control](s)
	*c = control{t: t, client: c.client}
	return c
}

// control is per-flow PASE state.
type control struct {
	t      *Transport
	client arbitration.Client

	// DCTCP's mark estimation and once-per-window cut.
	w dctcp.Window

	// Algorithm 2 state.
	rref         netem.BitRate
	activePrio   int8
	targetPrio   int8
	isInterQueue bool

	started   bool
	guarding  bool // reorder guard active: draining before promotion
	probeMode bool // bottom-queue probing instead of data

	// Graceful-degradation state (§3.3): awaiting is set while a
	// refresh has no response yet; misses counts consecutive unanswered
	// refreshes (driving the retry backoff); lastHeard is when the
	// control plane last answered; fallback marks DCTCP-mode operation
	// while the arbitrator is unreachable.
	awaiting  bool
	misses    int
	lastHeard sim.Time
	fallback  bool

	refreshTimer sim.Timer
	probeTimer   sim.Timer
	stopped      bool
}

// bottomQueue returns the lowest-priority class index.
func (c *control) bottomQueue() int8 { return int8(c.t.Sys.P.NumQueues - 1) }

// Init implements transport.Control: register with the arbitration
// control plane and hold transmission until the source half answers.
func (c *control) Init(s *transport.Sender) {
	c.w.Reset()
	c.activePrio = c.bottomQueue()
	c.targetPrio = c.activePrio
	s.Prio = c.activePrio
	s.Hold = true
	c.t.Sys.InitClient(&c.client, s.Spec.ID, s.Spec.Src, s.Spec.Dst)
	c.client.OnUpdate, c.client.UpdateArg = (*updateAction)(c), s
	c.lastHeard = s.Now()
	c.awaiting = true
	c.client.Refresh(c.key(s), c.demand(s))
	c.scheduleRefresh(s)
}

// key is the scheduling criterion sent to arbitrators. Precedence:
// deadline flows first (earliest-deadline-first, raw timestamps),
// then — when TaskAware is on — task-carrying flows in task arrival
// order (FIFO across tasks; flows within a task share the key and so
// the queue), then everything else by remaining size. The three
// classes occupy disjoint key ranges.
func (c *control) key(s *transport.Sender) int64 {
	if s.Spec.Deadline != 0 {
		return int64(s.Spec.Deadline)
	}
	if c.t.Cfg.TaskAware && s.Spec.Task != 0 {
		return int64(s.Spec.Task) + (1 << 45)
	}
	return s.Remaining() + (1 << 50)
}

// demand is the rate the source could actually use: line rate for
// flows with at least a bandwidth-delay product left, less for tails.
func (c *control) demand(s *transport.Sender) netem.BitRate {
	nic := s.Stack().NICRate()
	want := netem.BitRate(float64(s.Remaining()*8) / s.RTT().Seconds())
	if want < nic {
		min := netem.BitRate(float64(pkt.MTU*8) / s.RTT().Seconds())
		if want < min {
			want = min
		}
		return want
	}
	return nic
}

func (c *control) scheduleRefresh(s *transport.Sender) {
	period := sim.Duration(refreshRTTs * float64(s.RTT()))
	// Capped exponential backoff: each consecutive unanswered refresh
	// doubles the retry period, up to retryCap. With no misses the
	// period is exactly the paper's refresh interval, whatever the
	// measured RTT.
	if c.misses > 0 {
		for i := 0; i < c.misses && period < retryCap; i++ {
			period *= 2
		}
		if period > retryCap {
			period = retryCap
		}
	}
	c.refreshTimer = s.Stack().Eng.ScheduleAction(period, (*refreshAction)(c), s)
}

// The control's two timers and its client's update hook are
// pre-bound sim.Actions on the control with the sender as argument, so
// re-arming them every RTT, or starting a flow, allocates nothing.
type (
	refreshAction control
	probeAction   control
	updateAction  control
)

func (a *updateAction) Fire(arg any) { (*control)(a).onArbitration(arg.(*transport.Sender)) }

func (a *refreshAction) Fire(arg any) {
	c, s := (*control)(a), arg.(*transport.Sender)
	if c.stopped || s.Done {
		return
	}
	if c.awaiting {
		// The previous refresh went unanswered. Keep operating on
		// the previous (queue, Rref) allocation, back off, and —
		// past the deadline — degrade to DCTCP mode in the bottom
		// queue (§3.3).
		c.misses++
		c.t.o.retries.Inc()
		if c.started && !c.fallback {
			c.t.o.reuse.Inc()
		}
		if !c.fallback && c.t.Cfg.FallbackAfter > 0 &&
			s.Now().Sub(c.lastHeard) > c.t.Cfg.FallbackAfter {
			c.enterFallback(s)
		}
	}
	c.awaiting = true
	c.client.Refresh(c.key(s), c.demand(s))
	c.scheduleRefresh(s)
}

// enterFallback degrades the flow to self-adjusting DCTCP-style rate
// control in the lowest priority queue: with the control plane
// unreachable the flow cannot trust any allocation, but sending at the
// bottom priority cannot hurt arbitrated traffic. A flow still gated
// on its first arbitration response starts sending now.
func (c *control) enterFallback(s *transport.Sender) {
	c.fallback = true
	c.t.o.fallbacks.Inc()
	if !c.started {
		// The flow never got a grant: the fallback is what finally
		// clears it to transmit.
		c.t.o.waitCtrl.Observe(int64(s.Now().Sub(s.Spec.Start)))
	}
	c.started = true
	c.guarding = false
	c.probeMode = false
	c.probeTimer.Stop()
	c.activePrio = c.bottomQueue()
	c.targetPrio = c.activePrio
	s.Prio = c.activePrio
	s.Cwnd = 1
	c.isInterQueue = false
	c.updateHold(s)
	c.t.Rec.Mark(s.Spec.ID, trace.MarkFallback, 0)
	c.t.Rec.Epoch(s.Spec.ID, int(c.activePrio))
	s.Kick()
}

// onArbitration reacts to a (queue, Rref) update from the control
// plane.
func (c *control) onArbitration(s *transport.Sender) {
	if c.stopped || s.Done {
		return
	}
	c.awaiting = false
	c.misses = 0
	c.lastHeard = s.Now()
	resync := c.fallback
	if resync {
		// The control plane is answering again: leave DCTCP fallback
		// and re-adopt the fresh allocation in full.
		c.fallback = false
		c.t.o.resyncs.Inc()
		c.t.Rec.Mark(s.Spec.ID, trace.MarkResync, 0)
	}
	d := c.client.Combined()
	c.rref = d.Rref

	if !c.started {
		if !c.client.Ready() {
			return
		}
		c.started = true
		c.t.o.waitCtrl.Observe(int64(s.Now().Sub(s.Spec.Start)))
		c.t.Rec.Mark(s.Spec.ID, trace.MarkGrant, int64(d.Queue))
		c.adopt(s, d.Queue)
		c.applyWindow(s)
		c.updateHold(s)
		s.Kick()
		return
	}
	if resync {
		c.adopt(s, d.Queue)
		c.applyWindow(s)
		c.updateHold(s)
		s.Kick()
		return
	}

	c.targetPrio = d.Queue
	if d.Queue < c.activePrio && s.Inflight() > 0 {
		// Promotion with packets still out: drain first (§3.2).
		c.guarding = true
		c.updateHold(s)
		return
	}
	c.settle(s)
}

// settle ends any reorder guard and adopts the target queue. It is
// called whenever the guard's drain condition is met — or whenever
// waiting longer would be worse than a rare reordering (a timeout
// fired, or arbitration stopped promoting the flow).
func (c *control) settle(s *transport.Sender) {
	c.guarding = false
	if c.targetPrio != c.activePrio {
		c.adopt(s, c.targetPrio)
		c.applyWindow(s)
	}
	// For a flow already in the top queue, the refreshed reference
	// rate takes effect through the per-ACK window cap — no re-pin.
	c.updateHold(s)
	s.Kick()
}

// adopt switches the flow onto a priority queue. A flow entering an
// intermediate queue restarts probing from one packet (Algorithm 2)
// but keeps its learned slow-start threshold: re-entering slow start
// on every queue remap would burst into an already-backlogged band.
func (c *control) adopt(s *transport.Sender, q int8) {
	c.activePrio = q
	c.targetPrio = q
	c.guarding = false
	s.Prio = q
	wasProbe := c.probeMode
	c.probeMode = c.t.Cfg.Probing && q == c.bottomQueue()
	if c.probeMode && !wasProbe {
		c.scheduleProbe(s)
	}
	if !c.probeMode {
		c.probeTimer.Stop()
	}
	c.t.Rec.Epoch(s.Spec.ID, int(q))
}

// applyWindow sets the congestion window for the newly adopted queue
// per Algorithm 2.
func (c *control) applyWindow(s *transport.Sender) {
	switch {
	case c.activePrio == 0:
		if c.t.Cfg.UseRefRate {
			s.Cwnd = c.rrefWindow(s)
		}
		c.isInterQueue = false
	case c.activePrio == c.bottomQueue():
		s.Cwnd = 1
		c.isInterQueue = false
	default:
		if !c.isInterQueue {
			c.isInterQueue = true
			s.Cwnd = 1
		}
	}
}

// rrefWindow converts the reference rate into a window in segments,
// cwnd = Rref × RTT (Algorithm 2), using the measured RTT. When the
// reference rate is truthful (end-to-end arbitration) queues stay
// short and this equals the propagation BDP; when it is optimistic
// (e.g. arbitration restricted to access links) the inflated RTT
// inflates the window and the marked-ACK decrease law must fight it —
// visible as Figure 12a's local-arbitration penalty.
func (c *control) rrefWindow(s *transport.Sender) float64 {
	w := float64(c.rref) * s.RTT().Seconds() / (8 * pkt.MTU)
	if w < 1 {
		w = 1
	}
	return w
}

// updateHold recomputes the transmission gate.
func (c *control) updateHold(s *transport.Sender) {
	s.Hold = !c.started || c.guarding || c.probeMode
}

// scheduleProbe keeps a bottom-queue flow alive with one header-only
// probe per RTT (§4.3.2) instead of full data packets.
func (c *control) scheduleProbe(s *transport.Sender) {
	c.probeTimer = s.Stack().Eng.ScheduleAction(s.RTT(), (*probeAction)(c), s)
}

func (a *probeAction) Fire(arg any) {
	c, s := (*control)(a), arg.(*transport.Sender)
	if c.stopped || s.Done || !c.probeMode {
		return
	}
	s.SendProbe(s.CumAck())
	c.scheduleProbe(s)
}

// OnAck implements transport.Control: Algorithm 2's rate control.
func (c *control) OnAck(s *transport.Sender, ack *pkt.Packet, newly int32, _ sim.Duration) {
	// Reorder-guard release: everything sent at the old priority has
	// been acknowledged.
	if c.guarding && s.Inflight() == 0 {
		c.settle(s)
	}

	if c.w.Mark(s, ack, dctcp.Gain) {
		// Algorithm 2: marked ACK → DCTCP decrease law, any queue.
		if c.w.Due(s) {
			c.w.Cut(s, c.w.Alpha)
			// Leave slow start, as DCTCP does after a reduction —
			// growth continues additively from here.
			s.SSThresh = s.Cwnd
		}
		return
	}
	if newly <= 0 {
		return
	}

	if c.fallback {
		// DCTCP-mode fallback: self-adjusting additive growth, no
		// arbitrated pin to return to.
		dctcp.Grow(s, newly, 1)
		return
	}

	switch {
	case c.activePrio == 0:
		if c.t.Cfg.UseRefRate {
			// Algorithm 2: cwnd = Rref × RTT — but a congestion cut
			// persists for one window of data before the pin resumes,
			// the granularity at which DCTCP itself cuts. (Re-pinning
			// immediately would neutralize the decrease law whenever
			// the arbitrated rate turns out optimistic, e.g. when
			// arbitration is restricted to the access links.)
			if c.w.Due(s) {
				s.Cwnd = c.rrefWindow(s)
			}
		} else {
			// PASE-DCTCP ablation: standard DCTCP growth.
			dctcp.Grow(s, newly, 1)
		}
		c.isInterQueue = false
	case c.activePrio == c.bottomQueue():
		s.Cwnd = 1
		c.isInterQueue = false
	default:
		if c.isInterQueue {
			dctcp.Grow(s, newly, 1)
		} else {
			c.isInterQueue = true
			s.Cwnd = 1
		}
	}
}

// OnLoss implements transport.Control.
func (c *control) OnLoss(s *transport.Sender) {
	dctcp.Halve(s)
	if c.activePrio != 0 || !c.t.Cfg.UseRefRate {
		s.Cwnd = s.SSThresh
	}
}

// OnTimeout implements transport.Control: top-queue flows retransmit
// normally; lower-priority flows probe instead of resending data —
// their packets are usually parked behind higher classes, not lost.
func (c *control) OnTimeout(s *transport.Sender) bool {
	if c.guarding {
		// The drain stalled for a whole RTO: packets were lost, not
		// queued. Stop guarding — there is nothing left to reorder.
		c.settle(s)
	}
	if c.fallback {
		// Fallback flows behave like DCTCP: halve the slow-start
		// threshold and retransmit with a reset window. Probing needs
		// a live arbitrated queue assignment.
		dctcp.Halve(s)
		s.Cwnd = 1
		return false
	}
	if c.activePrio > 0 && c.t.Cfg.Probing {
		s.SendProbe(s.CumAck())
		return true
	}
	s.Cwnd = 1
	return false
}

// OnProbeAck implements transport.ProbeAckHandler.
func (c *control) OnProbeAck(s *transport.Sender, p *pkt.Packet) {
	s.AbsorbProbeAck(p)
	if c.guarding && s.Inflight() == 0 && !s.Done {
		c.settle(s)
	}
}

// FillData implements transport.Control.
func (c *control) FillData(s *transport.Sender, p *pkt.Packet) {
	p.ECT = true
	p.Prio = c.activePrio
	p.Rank = s.Remaining()
}

// MinRTO implements transport.Control. Fallback flows take the short
// floor: their losses are real losses, not parking behind higher
// classes, and a 200 ms floor would stall them for the whole outage.
func (c *control) MinRTO(*transport.Sender) sim.Duration {
	if c.fallback || c.activePrio == 0 {
		return minRTOTop
	}
	return minRTOLow
}

// shutdown releases arbitration state when the flow ends.
func (c *control) shutdown() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.refreshTimer.Stop()
	c.probeTimer.Stop()
	c.client.Release()
}
