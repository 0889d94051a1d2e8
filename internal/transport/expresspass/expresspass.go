// Package expresspass implements ExpressPass (Cho, Jang, Han —
// SIGCOMM 2017), the credit-based representative of the transport
// design space: receivers pace minimum-size credit packets toward
// senders, a sender transmits exactly one data packet per arriving
// credit, and switches rate-limit the credit class so the data those
// credits summon can never exceed ~95% of any link on the (symmetric)
// reverse path — data queues are bounded by construction and drops
// move from the data plane to the credit plane, where they are cheap
// feedback instead of loss.
//
// The receiver-side credit engine runs the paper's credit feedback
// loop per flow: every update period it measures credit waste
// (credits sent minus data received), aggressively increases the
// credit rate toward the line ceiling while waste stays under the
// target, and multiplicatively backs off — with a shrinking
// aggressiveness weight w — when shapers drop credits. Credit release
// times carry deterministic per-flow jitter to break the symmetry
// synchronized incast senders would otherwise exhibit.
//
// Everything is per-host state driven by per-host engines, so
// ExpressPass runs unchanged on the sharded engine and its runs are
// byte-identical to serial ones.
package expresspass

import (
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/pool"
	"pase/internal/sim"
	"pase/internal/transport"
)

// The credit engine's parameters, as in the paper.
const (
	// targetLoss is the credit-waste fraction the feedback loop aims
	// for (the paper's alpha).
	targetLoss = 0.125
	// wMax / wMin bound the aggressiveness weight of the
	// increase/decrease rule.
	wMax = 0.5
	wMin = 0.01
	// initRatio sets a new flow's initial credit rate as a fraction of
	// the line ceiling.
	initRatio = 0.5
	// minRate floors the per-flow credit rate so a starved flow keeps
	// probing: its ~1.2 ms credit gap stays well inside idleTimeout,
	// so its crediting state never idles out.
	minRate = 10 * netem.Mbps
	// jitter is the fractional bound of the deterministic per-credit
	// release jitter (up to 12.5% of the credit gap).
	jitter = 0.125
	// minPeriod floors the per-flow feedback update period (the period
	// is otherwise the flow's base RTT).
	minPeriod = 50 * sim.Microsecond
	// idleTimeout stops crediting a flow that has neither requested
	// credits nor delivered data for this long; the sender's RTO
	// re-opens the flow if it still owes data.
	idleTimeout = 5 * sim.Millisecond
	// minRTO floors the sender's retransmission timeout.
	minRTO = 10 * sim.Millisecond
)

// Totals aggregates the credit plane's cost across every host, summed
// in host-ID order so the result is deterministic at any shard count.
type Totals struct {
	// Credits / CreditBytes count credit packets paced out by
	// receivers; Requests counts flow-opening credit requests.
	Credits     int64
	CreditBytes int64
	Requests    int64
	// Wasted counts credits that arrived at a sender with nothing to
	// send (the receiver-visible analogue is rate-feedback loss).
	Wasted int64
	// Messages is the control-plane message total (credits plus
	// requests) — the analogue of PASE's arbitration message count.
	Messages int64
}

// System wires ExpressPass onto a driver: a per-host credit engine on
// the receive side and a credit-gated Control per flow on the send
// side.
type System struct {
	// seed derives the per-flow jitter streams; runs with equal seeds
	// are identical.
	seed  uint64
	hosts []*hostState // in driver stack (host-ID) order
}

// hostState is one host's credit engine: per-flow crediting state for
// flows this host receives, plus the host's credit-plane counters.
// It is touched only by its host's engine, so sharded runs need no
// synchronization.
type hostState struct {
	sys     *System
	st      *transport.Stack
	maxRate float64 // line ceiling for triggered data (bits/s)
	flows   map[pkt.FlowID]*creditState
	// free is the credit-state list of the host's engine, shared by
	// every host on it: one host's requests and completions rarely
	// pair up.
	free *pool.List[creditState]

	credits     int64
	creditBytes int64
	requests    int64
	wasted      int64
}

// creditState is the receiver-side state of one credited flow.
type creditState struct {
	host *hostState
	flow pkt.FlowID
	peer pkt.NodeID // the sender credits are paced toward
	segs int32      // data packets the flow owes in total

	rate   float64 // current credit rate, in triggered-data bits/s
	w      float64 // aggressiveness weight
	rng    sim.Rand
	period sim.Duration

	creditsSent int64
	dataRcvd    int64
	// ackCredits is the highest echoed credit sequence plus one: the
	// prefix of credits whose round trip has completed. Loss is
	// measured only over this prefix, so in-flight credits never read
	// as lost.
	ackCredits int64
	baseAck    int64 // period baselines for the loss measurement
	baseData   int64
	periodEnd  sim.Time
	stopAt     sim.Time

	timer sim.Timer
}

// creditPoolCap bounds each engine's credit-state list, as the flow
// pool bounds its senders and receivers.
const creditPoolCap = 1024

// Attach installs ExpressPass on every stack of the driver, seeding
// the credit jitter with seed.
func Attach(d *transport.Driver, seed uint64) *System {
	sys := &System{seed: seed}
	lists := make(map[*sim.Engine]*pool.List[creditState])
	for _, st := range d.Stacks {
		if lists[st.Eng] == nil {
			l := pool.New[creditState](1, creditPoolCap)
			lists[st.Eng] = &l
		}
		h := &hostState{
			sys:   sys,
			st:    st,
			flows: make(map[pkt.FlowID]*creditState),
			free:  lists[st.Eng],
			maxRate: float64(st.NICRate()) * float64(pkt.MTU) /
				float64(pkt.MTU+pkt.CreditSize),
		}
		sys.hosts = append(sys.hosts, h)
		st.NewControl = newControl
		st.CreditHandler = h.onCreditPkt
		st.OnData = h.onData
	}
	return sys
}

// Totals sums the credit-plane counters across hosts (deterministic:
// hosts are kept in ID order).
func (sys *System) Totals() Totals {
	var t Totals
	for _, h := range sys.hosts {
		t.Credits += h.credits
		t.CreditBytes += h.creditBytes
		t.Requests += h.requests
		t.Wasted += h.wasted
	}
	t.Messages = t.Credits + t.Requests
	return t
}

func newControl(*transport.Sender) transport.Control { return &control{} }

// onCreditPkt handles the two credit-plane packet kinds at this host.
func (h *hostState) onCreditPkt(p *pkt.Packet) {
	switch p.Type {
	case pkt.Credit:
		// A credit arrived at a sender: transmit exactly one segment,
		// echoing the credit's sequence number on it.
		s := h.st.Sender(p.Flow)
		if s == nil {
			h.wasted++
			return
		}
		s.CreditEcho = p.CSeq
		if !s.TransmitOne() {
			h.wasted++
		}
	case pkt.CreditReq:
		h.onCreditReq(p)
	}
}

// onCreditReq opens (or refreshes) receiver-side crediting for a flow.
func (h *hostState) onCreditReq(p *pkt.Packet) {
	h.requests++
	now := h.st.Eng.Now()
	cs, ok := h.flows[p.Flow]
	if ok {
		// A retransmitted request: keep the engine running longer.
		cs.stopAt = now.Add(idleTimeout)
		return
	}
	period := h.st.BaseRTT(h.st.Host.ID(), p.Src)
	if period < minPeriod {
		period = minPeriod
	}
	cs = h.free.Take()
	*cs = creditState{
		host:      h,
		flow:      p.Flow,
		peer:      p.Src,
		segs:      p.Seq,
		rate:      h.maxRate * initRatio,
		w:         wMax,
		rng:       *sim.NewRand(h.sys.seed ^ 0xc3ed17).Split(uint64(p.Flow)),
		period:    period,
		periodEnd: now.Add(period),
		stopAt:    now.Add(idleTimeout),
	}
	h.flows[p.Flow] = cs
	h.tick(cs)
}

// onData feeds the credit-waste measurement and retires flows whose
// data has fully arrived.
func (h *hostState) onData(p *pkt.Packet) {
	cs, ok := h.flows[p.Flow]
	if !ok {
		return
	}
	cs.dataRcvd++
	if p.CSeq+1 > cs.ackCredits {
		cs.ackCredits = p.CSeq + 1
	}
	cs.stopAt = h.st.Eng.Now().Add(idleTimeout)
	if cs.dataRcvd >= int64(cs.segs) {
		h.drop(cs)
	}
}

// drop stops and forgets a flow's crediting state and hands the record
// back: its credit timer is stopped, so no tick of this life reaches
// the next. On a checked engine the record is poisoned and retired
// instead, so a touch after release panics (Fire) rather than crediting
// the flow that would have reused it.
func (h *hostState) drop(cs *creditState) {
	cs.timer.Stop()
	delete(h.flows, cs.flow)
	if h.st.Eng.Checked() {
		cs.host = nil
		return
	}
	h.free.Put(cs)
}

// tick sends one credit and schedules the next at the current rate
// (plus jitter), running the feedback update at period boundaries.
func (h *hostState) tick(cs *creditState) {
	now := h.st.Eng.Now()
	if cs.dataRcvd >= int64(cs.segs) || now >= cs.stopAt {
		h.drop(cs)
		return
	}
	if now >= cs.periodEnd {
		cs.update(now, h.maxRate)
	}
	p := h.st.NewPacket()
	p.Flow = cs.flow
	p.Dst = cs.peer
	p.Type = pkt.Credit
	p.Size = pkt.CreditSize
	p.CSeq = cs.creditsSent
	p.SentAt = now
	h.st.Host.Send(p)
	cs.creditsSent++
	h.credits++
	h.creditBytes += pkt.CreditSize
	cs.timer = h.st.Eng.ScheduleAction(cs.gap(), cs, nil)
}

// Fire implements sim.Action: the per-credit timer is pre-bound to the
// flow's crediting state, so pacing credits allocates nothing. On a
// retired record (no host) it panics.
func (cs *creditState) Fire(any) { cs.host.tick(cs) }

// gap returns the next credit spacing: the serialization time of the
// data packet this credit triggers at the current credit rate, plus
// deterministic jitter to break incast symmetry.
func (cs *creditState) gap() sim.Duration {
	base := netem.BitRate(cs.rate).Serialize(pkt.MTU)
	return base + sim.Duration(float64(base)*jitter*cs.rng.Float64())
}

// update runs the paper's per-period feedback: measure credit loss
// over the credits whose round trip completed this period, then either
// converge toward the line ceiling (loss under target; the weight w
// regains aggressiveness) or decrease multiplicatively (w halves so
// the next increase is cautious). Credits still in flight contribute
// nothing — the echoed credit sequence tells the two apart.
func (cs *creditState) update(now sim.Time, maxRate float64) {
	sent := cs.ackCredits - cs.baseAck
	got := cs.dataRcvd - cs.baseData
	if sent > 0 {
		loss := float64(sent-got) / float64(sent)
		if loss < 0 {
			loss = 0
		}
		if loss <= targetLoss {
			cs.w = (cs.w + wMax) / 2
			cs.rate = (1-cs.w)*cs.rate + cs.w*maxRate*(1+targetLoss)
		} else {
			cs.rate = cs.rate * (1 - loss) * (1 + targetLoss)
			cs.w = cs.w / 2
			if cs.w < wMin {
				cs.w = wMin
			}
		}
		if cs.rate > maxRate {
			cs.rate = maxRate
		}
		if cs.rate < float64(minRate) {
			cs.rate = float64(minRate)
		}
	}
	cs.baseAck, cs.baseData = cs.ackCredits, cs.dataRcvd
	cs.periodEnd = now.Add(cs.period)
}

// control is the sender-side protocol hook: transmission is entirely
// credit-gated, so the control only opens the flow, re-opens it on
// timeout, and stamps headers.
type control struct{}

// Init implements transport.Control: pacing mode with rate zero means
// the framework never self-transmits — data leaves only through
// TransmitOne when a credit arrives.
func (c *control) Init(s *transport.Sender) {
	s.Paced = true
	s.Rate = 0
	s.SendCreditRequest()
	s.ArmRTO()
}

// OnAck implements transport.Control (the rate lives at the receiver).
func (c *control) OnAck(*transport.Sender, *pkt.Packet, int32, sim.Duration) {}

// OnLoss implements transport.Control. Data drops cannot happen by
// construction; if faults burn a packet anyway, the retransmission
// queue feeds the next credits.
func (c *control) OnLoss(*transport.Sender) {}

// OnTimeout implements transport.Control: queue everything in flight
// for (credit-gated) retransmission and ask the receiver for credits
// again — its crediting state may have idled out.
func (c *control) OnTimeout(s *transport.Sender) bool {
	s.MarkAllInflightLost()
	s.SendCreditRequest()
	return true
}

// FillData implements transport.Control: echo the triggering credit's
// sequence so the receiver's loss measurement is exact.
func (c *control) FillData(s *transport.Sender, p *pkt.Packet) {
	p.ECT = false
	p.Rank = s.Remaining()
	p.CSeq = s.CreditEcho
}

// MinRTO implements transport.Control.
func (c *control) MinRTO(*transport.Sender) sim.Duration { return minRTO }
