package transport

import (
	"pase/internal/metrics"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/trace"
	"pase/internal/workload"
)

// segState tracks the lifecycle of one segment at the sender: one of
// the four states below, plus the segRetx flag.
type segState uint8

const (
	segUnsent   segState = iota
	segInflight          // transmitted, not yet acknowledged or declared lost
	segLost              // declared lost, waiting for retransmission
	segAcked

	// segRetx flags a segment that was retransmitted at least once (its
	// ACKs yield no RTT sample).
	segRetx segState = 1 << 7

	// segStateInit caps the per-segment record a new flow starts with.
	// The record grows to the highest sequence ever sent, so a 1 GiB
	// background flow that sends a few thousand segments in a run never
	// materialises the other 700 000.
	segStateInit = 4096
)

// Default RTO bounds; protocols override the floor via Control.MinRTO.
const (
	maxRTOBackoff = 6
	// AbsMaxRTO caps exponential backoff.
	AbsMaxRTO = 2 * sim.Second
)

// Sender is the per-flow transmit side: window or pacing, loss
// recovery, and RTT estimation. Protocol logic manipulates the
// exported fields and helpers from its Control callbacks.
type Sender struct {
	st   *Stack
	Spec workload.FlowSpec
	ctrl Control

	// Segs is the number of MSS segments in the flow.
	Segs int32

	// Cwnd is the congestion window in segments (window mode).
	// Effective window is max(1, floor(Cwnd)).
	Cwnd float64
	// SSThresh is the slow-start threshold in segments.
	SSThresh float64

	// Paced switches the flow from window mode to rate pacing
	// (PDQ-style). Rate 0 pauses the flow.
	Paced bool
	Rate  netem.BitRate

	// Prio is the priority class stamped on outgoing data (used by
	// PASE and any PRIO-queue protocol).
	Prio int8

	// CreditEcho is the credit sequence number of the most recent
	// ExpressPass credit; FillData echoes it on the data packet that
	// credit triggers so the receiver can measure credit loss exactly.
	CreditEcho int64

	// Hold suspends all transmission (data and retransmissions) while
	// true. PASE uses it to gate sending on arbitration readiness, to
	// drain in-flight packets before a priority promotion (reorder
	// guard), and while a bottom-queue flow is in probe mode.
	Hold bool

	// NoFastRetx disables dupACK-triggered fast retransmit; pFabric's
	// minimal rate control recovers by (small, fixed) timeouts only.
	NoFastRetx bool
	// FixedRTO, when positive, replaces RTT-based RTO estimation and
	// exponential backoff with a constant timeout (pFabric).
	FixedRTO sim.Duration

	// state holds the segments sent so far; an index past its end reads
	// segUnsent (see seg / setSeg).
	state      []segState
	nextSeq    int32
	cumAck     int32
	ackedCount int32
	ackedBytes int64
	inflight   int32
	retxQ      []int32

	dupAcks    int
	recoverSeq int32

	srtt, rttvar sim.Duration
	backoff      int
	rtoTimer     sim.Timer
	paceTimer    sim.Timer

	// lastProgress is the last instant a segment was newly acknowledged
	// (flow start before any ACK); Stack.AbortAfter measures from it.
	lastProgress sim.Time

	// Retx counts retransmitted segments; Timeouts counts RTO firings.
	Retx     int
	Timeouts int

	Done bool
	// Aborted marks a flow terminated without completing.
	Aborted    bool
	FinishTime sim.Time
}

// newSender takes a record from the engine's flow pool and starts it
// over: every field is reset except the slices' backing arrays and the
// previous life's Control, which StartFlow hands to the factory.
func newSender(st *Stack, spec workload.FlowSpec) *Sender {
	segs := pkt.DataPackets(spec.Size)
	s := st.flows.senders.Take()
	*s = Sender{
		st:           st,
		Spec:         spec,
		ctrl:         s.ctrl,
		Segs:         segs,
		state:        resetStates(s.state, min(int(segs), segStateInit)),
		retxQ:        s.retxQ[:0],
		Cwnd:         1,
		SSThresh:     1 << 20,
		lastProgress: st.Eng.Now(),
	}
	return s
}

// seg returns the lifecycle state of a segment.
func (s *Sender) seg(seq int32) segState {
	if int(seq) >= len(s.state) {
		return segUnsent
	}
	return s.state[seq] &^ segRetx
}

// setSeg moves a segment to a new lifecycle state, keeping its segRetx
// flag and growing the record (doubling, up to Segs) to hold it.
func (s *Sender) setSeg(seq int32, st segState) {
	if int(seq) >= len(s.state) {
		n := min(max(2*len(s.state), int(seq)+1), int(s.Segs))
		s.state = append(s.state, make([]segState, n-len(s.state))...)
	}
	s.state[seq] = s.state[seq]&segRetx | st
}

// resetStates returns a zeroed segState slice of length n, reusing
// prev's backing array when it is large enough.
func resetStates(prev []segState, n int) []segState {
	if cap(prev) < n {
		return make([]segState, n)
	}
	prev = prev[:n]
	clear(prev)
	return prev
}

// Stack returns the owning stack.
func (s *Sender) Stack() *Stack { return s.st }

// Control returns the protocol control the stack's factory built for
// the flow.
func (s *Sender) Control() Control { return s.ctrl }

// ReuseControl is for NewControl factories: it returns the *C that s,
// a recycled record, still holds from its previous life, or a new C.
// The factory must overwrite every field, and nothing of the last flow
// may reach the control after it: PASE stops its timers and stamps its
// replies, PDQ stops its three sync phases at release. ExpressPass's
// control is an empty struct; its per-flow state lives at the receiver.
func ReuseControl[C any](s *Sender) *C {
	if c, ok := any(s.ctrl).(*C); ok {
		return c
	}
	return new(C)
}

// ended reports whether the flow is over. A record the pool retired on
// a checked engine has no stack: reaching one is a use after release.
func (s *Sender) ended() bool {
	if s.st == nil {
		panic("transport: sender touched after its release")
	}
	return s.Done
}

// Now returns the current simulation time.
func (s *Sender) Now() sim.Time { return s.st.Eng.Now() }

// BaseRTT returns the propagation RTT to the flow's destination.
func (s *Sender) BaseRTT() sim.Duration { return s.st.BaseRTT(s.Spec.Src, s.Spec.Dst) }

// RTT returns the smoothed RTT estimate, falling back to BaseRTT
// before the first sample.
func (s *Sender) RTT() sim.Duration {
	if s.srtt > 0 {
		return s.srtt
	}
	return s.BaseRTT()
}

// AckedBytes returns how many payload bytes have been acknowledged.
func (s *Sender) AckedBytes() int64 { return s.ackedBytes }

// Remaining returns the unacknowledged payload bytes — the remaining
// flow size used as scheduling criterion by pFabric, PDQ and PASE.
func (s *Sender) Remaining() int64 { return s.Spec.Size - s.ackedBytes }

// Inflight returns the number of in-flight segments.
func (s *Sender) Inflight() int32 { return s.inflight }

// CumAck returns the lowest unacknowledged sequence number, the
// retransmission candidate.
func (s *Sender) CumAck() int32 { return s.cumAck }

// NextWindowEdge returns the highest sequence number reached by the
// sender so far; once-per-window logic (DCTCP's alpha refresh and
// window cut) uses it as the edge marker.
func (s *Sender) NextWindowEdge() int32 { return s.nextSeq }

// WindowSegs returns the effective window in whole segments.
func (s *Sender) WindowSegs() int32 {
	w := int32(s.Cwnd)
	if w < 1 {
		w = 1
	}
	return w
}

// nextToSend picks the next segment: retransmissions first, then new
// data. It reports false when nothing is eligible.
func (s *Sender) nextToSend() (int32, bool) {
	for len(s.retxQ) > 0 {
		seq := s.retxQ[0]
		s.retxQ = s.retxQ[1:]
		if s.seg(seq) == segLost {
			return seq, true
		}
	}
	if s.nextSeq < s.Segs {
		seq := s.nextSeq
		s.nextSeq++
		return seq, true
	}
	return -1, false
}

// newPacket draws a packet of this flow from the pool and lets the
// protocol stamp its header.
func (s *Sender) newPacket(typ pkt.Type, seq, size int32) *pkt.Packet {
	p := s.st.NewPacket()
	p.Flow = s.Spec.ID
	p.Dst = s.Spec.Dst
	p.Type = typ
	p.Seq = seq
	p.Size = size
	p.SentAt = s.Now()
	s.ctrl.FillData(s, p)
	return p
}

// transmit sends one segment.
func (s *Sender) transmit(seq int32) {
	resend := s.seg(seq) == segLost
	s.setSeg(seq, segInflight)
	s.inflight++
	p := s.newPacket(pkt.Data, seq, pkt.SegmentWireSize(s.Spec.Size, seq))
	if resend {
		s.Retx++
		s.state[seq] |= segRetx
		s.st.obs.retx.Inc()
		s.st.Rec.Mark(s.Spec.ID, trace.MarkRetx, int64(seq))
	} else if seq == 0 {
		s.st.Rec.FirstSend(s.Spec.ID, int(s.Prio))
	}
	s.st.Host.Send(p)
}

// trySend transmits as much as the window (or pacing rate) allows and
// keeps the retransmission timer armed.
func (s *Sender) trySend() {
	if s.ended() || s.Hold {
		return
	}
	if s.Paced {
		s.pump()
		return
	}
	for s.inflight < s.WindowSegs() {
		seq, ok := s.nextToSend()
		if !ok {
			break
		}
		s.transmit(seq)
	}
	s.armRTO()
}

// pump is the pacing loop: one packet per Rate-determined interval.
func (s *Sender) pump() {
	if s.ended() || s.Hold || s.Rate <= 0 || s.paceTimer.Pending() {
		return
	}
	seq, ok := s.nextToSend()
	if !ok {
		return
	}
	s.transmit(seq)
	gap := s.Rate.Serialize(pkt.SegmentWireSize(s.Spec.Size, seq))
	s.paceTimer = s.st.Eng.ScheduleAction(gap, (*paceAction)(s), nil)
	s.armRTO()
}

// SetRate changes the pacing rate; a positive rate resumes a paused
// paced flow immediately.
func (s *Sender) SetRate(r netem.BitRate) {
	s.Rate = r
	s.st.obs.rateUpdates.Inc()
	if r > 0 {
		s.pump()
	}
}

// MarkLost declares an in-flight segment lost and queues it for
// retransmission.
func (s *Sender) MarkLost(seq int32) {
	if seq < 0 || seq >= s.Segs || s.seg(seq) != segInflight {
		return
	}
	s.setSeg(seq, segLost)
	s.inflight--
	s.retxQ = append(s.retxQ, seq)
}

// MarkAllInflightLost performs go-back-N recovery bookkeeping: every
// in-flight segment is queued for retransmission.
func (s *Sender) MarkAllInflightLost() {
	for seq := s.cumAck; seq < s.nextSeq; seq++ {
		if s.seg(seq) == segInflight {
			s.setSeg(seq, segLost)
			s.retxQ = append(s.retxQ, seq)
		}
	}
	s.inflight = 0
}

// TransmitOne sends exactly one eligible segment (retransmissions
// first), bypassing the window and pacing gates — the credit-driven
// transmission primitive: ExpressPass transmits one data packet per
// arriving credit. It reports whether a segment went out; false means
// the credit was wasted (flow done, held, or nothing eligible).
func (s *Sender) TransmitOne() bool {
	if s.ended() || s.Hold {
		return false
	}
	seq, ok := s.nextToSend()
	if !ok {
		return false
	}
	s.transmit(seq)
	s.armRTO()
	return true
}

// SendCreditRequest opens a credit-based flow: a minimum-size request
// asking the receiver to start pacing credits toward this sender. Seq
// carries the flow's segment count so the receiver-side credit engine
// knows how much data the flow still owes.
func (s *Sender) SendCreditRequest() {
	s.st.Host.Send(s.newPacket(pkt.CreditReq, s.Segs, pkt.CreditSize))
}

// ArmRTO arms the retransmission timer if it is not already pending.
// Controls that gate all transmission on external events (credits,
// arbitration) call it at flow start so a lost opener still recovers
// by timeout.
func (s *Sender) ArmRTO() { s.armRTO() }

// SendProbe emits a PASE loss-discrimination probe for segment seq.
func (s *Sender) SendProbe(seq int32) {
	s.st.obs.probes.Inc()
	s.st.Host.Send(s.newPacket(pkt.Probe, seq, pkt.HeaderSize))
}

// ack records the delivery of one segment, reporting whether it was
// news.
func (s *Sender) ack(seq int32) bool {
	st := s.seg(seq)
	if st == segAcked {
		return false
	}
	if st == segInflight {
		s.inflight--
	}
	s.setSeg(seq, segAcked)
	s.ackedCount++
	s.ackedBytes += int64(pkt.SegmentWireSize(s.Spec.Size, seq) - pkt.HeaderSize)
	return true
}

// onAck processes an arriving Ack or ProbeAck.
func (s *Sender) onAck(p *pkt.Packet) {
	if s.ended() {
		return
	}
	if p.Type == pkt.ProbeAck {
		if h, ok := s.ctrl.(ProbeAckHandler); ok {
			h.OnProbeAck(s, p)
		}
		return
	}

	var newly int32
	var rttSample sim.Duration

	if p.SackSeq >= 0 && p.SackSeq < s.Segs {
		seq := p.SackSeq
		if s.ack(seq) {
			newly++
		}
		if s.state[seq]&segRetx == 0 && p.SentAt > 0 {
			rttSample = s.Now().Sub(p.SentAt)
			s.updateRTT(rttSample)
		}
	}
	// The cumulative field can cover segments whose individual ACKs
	// were lost.
	if p.CumAck > s.cumAck {
		for seq := s.cumAck; seq < p.CumAck && seq < s.Segs; seq++ {
			if s.ack(seq) {
				newly++
			}
		}
	}
	advanced := false
	for s.cumAck < s.Segs && s.seg(s.cumAck) == segAcked {
		s.cumAck++
		advanced = true
	}

	if s.ackedCount >= s.Segs {
		s.finish()
		return
	}

	if newly > 0 {
		// Any fresh delivery — cumulative or selective — proves the
		// path is passing packets again: stop compounding the timeout.
		// A long outage otherwise leaves the backoff pinned high and
		// the first post-recovery loss waits out a multiplied RTO.
		s.backoff = 0
		s.lastProgress = s.Now()
	}
	if newly > 0 && advanced {
		s.dupAcks = 0
		s.resetRTO()
	} else if !advanced {
		s.dupAcks++
		if !s.NoFastRetx && s.dupAcks >= 3 && s.cumAck >= s.recoverSeq {
			// Fast retransmit of the first missing segment.
			if s.seg(s.cumAck) == segInflight {
				s.MarkLost(s.cumAck)
				s.recoverSeq = s.nextSeq
				s.dupAcks = 0
				s.ctrl.OnLoss(s)
			}
		}
	}

	s.ctrl.OnAck(s, p, newly, rttSample)
	s.trySend()
}

func (s *Sender) updateRTT(sample sim.Duration) {
	if sample <= 0 {
		return
	}
	if s.srtt == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
		return
	}
	diff := s.srtt - sample
	if diff < 0 {
		diff = -diff
	}
	s.rttvar = (3*s.rttvar + diff) / 4
	s.srtt = (7*s.srtt + sample) / 8
}

// RTO returns the current retransmission timeout with backoff applied.
func (s *Sender) RTO() sim.Duration {
	if s.FixedRTO > 0 {
		return s.FixedRTO
	}
	rto := s.srtt + 4*s.rttvar
	if min := s.ctrl.MinRTO(s); rto < min {
		rto = min
	}
	for i := 0; i < s.backoff; i++ {
		rto *= 2
		if rto >= AbsMaxRTO {
			return AbsMaxRTO
		}
	}
	return rto
}

func (s *Sender) armRTO() {
	if s.ended() || s.rtoTimer.Pending() {
		return
	}
	s.rtoTimer = s.st.Eng.ScheduleAction(s.RTO(), (*rtoAction)(s), nil)
}

// The sender's two timers are pre-bound sim.Actions on the sender, so
// re-arming the RTO on every ACK allocates nothing.
type (
	rtoAction  Sender
	paceAction Sender
)

func (a *rtoAction) Fire(any)  { (*Sender)(a).onTimeout() }
func (a *paceAction) Fire(any) { (*Sender)(a).pump() }

func (s *Sender) resetRTO() {
	s.rtoTimer.Stop()
	s.armRTO()
}

func (s *Sender) onTimeout() {
	if s.ended() {
		return
	}
	s.Timeouts++
	s.st.obs.timeouts.Inc()
	s.st.Rec.Mark(s.Spec.ID, trace.MarkTimeout, 0)
	if s.backoff < maxRTOBackoff {
		s.backoff++
	}
	if s.st.AbortAfter > 0 && s.Now().Sub(s.lastProgress) >= s.st.AbortAfter {
		// Progress deadline passed: kill the flow instead of retrying
		// forever against (say) a blackholed path.
		s.Abort()
		return
	}
	if s.ctrl.OnTimeout(s) {
		s.armRTO()
		return
	}
	s.MarkAllInflightLost()
	s.trySend()
	s.armRTO()
}

// Kick resumes transmission after an external event (arbitration
// response, hold release) changed what the flow may send.
func (s *Sender) Kick() { s.trySend() }

// AbsorbProbeAck folds a ProbeAck's reception state into the sender:
// when the receiver holds the probed segment the ACK was merely lost
// or delayed, so the segment is acknowledged; otherwise the data
// packet itself was lost and is queued for retransmission.
func (s *Sender) AbsorbProbeAck(p *pkt.Packet) {
	if s.ended() {
		return
	}
	prevAcked := s.ackedCount
	seq := p.SackSeq
	if p.Have && seq >= 0 && seq < s.Segs {
		s.ack(seq)
	} else {
		s.MarkLost(seq)
	}
	if p.CumAck > s.cumAck {
		for q := s.cumAck; q < p.CumAck && q < s.Segs; q++ {
			s.ack(q)
		}
	}
	for s.cumAck < s.Segs && s.seg(s.cumAck) == segAcked {
		s.cumAck++
	}
	if s.ackedCount > prevAcked {
		s.lastProgress = s.Now()
	}
	if s.ackedCount >= s.Segs {
		s.finish()
		return
	}
	s.trySend()
}

// Abort terminates the flow without completing it (used by PDQ's
// Early Termination). The flow is recorded as incomplete.
func (s *Sender) Abort() {
	if s.ended() {
		return
	}
	s.Aborted = true
	s.finish()
}

func (s *Sender) finish() {
	s.Done = true
	s.FinishTime = s.Now()
	s.rtoTimer.Stop()
	s.paceTimer.Stop()
	s.st.flowEnded(s)
}

// record is the flow's FlowRecord as of now: complete once it has
// finished, incomplete while it runs or after an abort.
func (s *Sender) record() metrics.FlowRecord {
	r := metrics.FlowRecord{
		ID:       uint64(s.Spec.ID),
		Task:     s.Spec.Task,
		Size:     s.Spec.Size,
		Start:    s.Spec.Start,
		Deadline: s.Spec.Deadline,
		Done:     s.Done && !s.Aborted,
		Aborted:  s.Aborted,
		Retx:     s.Retx,
		Timeouts: s.Timeouts,
	}
	if r.Done {
		r.Finish = s.FinishTime
	}
	return r
}

// ProbeAckHandler is implemented by Controls that use SendProbe (PASE).
type ProbeAckHandler interface {
	OnProbeAck(s *Sender, p *pkt.Packet)
}
