// Package transport implements the end-host transport framework every
// protocol under study plugs into: per-host stacks that demultiplex
// packets to per-flow senders and receivers, reliable delivery
// (sequencing, per-packet ACKs with selective feedback, fast
// retransmit, retransmission timeouts with exponential backoff), RTT
// estimation, and both window-based and rate-paced transmission.
//
// Protocol behaviour — congestion control, priority/rank stamping,
// timeout policy — is supplied through the Control interface;
// subpackages implement DCTCP, D2TCP, L2DCT, pFabric and PDQ, and
// internal/core/endhost implements the PASE transport.
package transport

import (
	"fmt"

	"pase/internal/metrics"
	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/trace"
	"pase/internal/workload"
)

// Control is the per-flow protocol hook. The framework calls it at
// well-defined points; it manipulates the Sender's window, rate,
// priority and timers through the Sender's exported surface.
type Control interface {
	// Init is called once when the flow starts, before any
	// transmission. It must set the initial window (or pacing rate).
	Init(s *Sender)
	// OnAck is called for every arriving ACK after the framework has
	// updated cumulative/selective state. newly is the number of
	// segments this ACK newly acknowledged (0 for a duplicate);
	// rttSample is a valid RTT measurement or 0.
	OnAck(s *Sender, ack *pkt.Packet, newly int32, rttSample sim.Duration)
	// OnLoss is called when fast retransmit declares a segment lost
	// (the typical reaction is a multiplicative decrease).
	OnLoss(s *Sender)
	// OnTimeout is called when the retransmission timer fires, before
	// the framework's default recovery (mark every outstanding
	// segment lost and retransmit). Returning true suppresses the
	// default — the protocol has handled recovery itself (e.g.
	// PASE's probing).
	OnTimeout(s *Sender) bool
	// FillData stamps protocol header fields (Prio, Rank, ECT) on an
	// outgoing data packet.
	FillData(s *Sender, p *pkt.Packet)
	// MinRTO returns the protocol's retransmission-timeout floor for
	// this flow in its current state.
	MinRTO(s *Sender) sim.Duration
}

// Stack is the per-host transport instance: it owns every sender and
// receiver terminating at its host.
type Stack struct {
	Eng  *sim.Engine
	Host *netem.Host
	// NewControl builds the protocol instance for an outgoing flow.
	NewControl func(s *Sender) Control
	// Collector, when set, receives a FlowRecord per finished flow.
	// Stored runs use *metrics.Collector; streaming runs install a
	// bounded-memory StreamCollector.
	Collector metrics.Sink
	// BaseRTT estimates the propagation RTT between two hosts; used to
	// seed RTO and window computations before any sample exists.
	BaseRTT func(src, dst pkt.NodeID) sim.Duration
	// AbortAfter, when positive, kills any flow that has gone this long
	// without forward progress (no segment newly acknowledged): the next
	// RTO firing past the deadline aborts it instead of retrying
	// forever. Aborted flows carry the Aborted mark in their record and
	// are excluded from AFCT but reported in the Summary.
	AbortAfter sim.Duration
	// OnFlowDone, when set, is invoked after a flow completes.
	OnFlowDone func(s *Sender)
	// CreditHandler, when set, receives credit-plane packets
	// (ExpressPass credits arriving at a sender, credit requests
	// arriving at a receiver).
	CreditHandler func(p *pkt.Packet)
	// OnData, when set, observes every arriving data packet before the
	// receiver processes it (ExpressPass's credit engine counts
	// deliveries for its credit-waste feedback).
	OnData func(p *pkt.Packet)
	// Rec, when set, is the run's flight recorder: every
	// retransmitted data segment and every RTO firing is marked on the
	// flow's trace. Nil (the default) records nothing, like the obs
	// and check handles.
	Rec *trace.Recorder

	// senders and receivers are made at the first flow that needs
	// them: most hosts of a large fabric never see one.
	senders   map[pkt.FlowID]*Sender
	receivers map[pkt.FlowID]*receiver
	flows     *flowPool // Eng's free flow records
	pkts      *pkt.Pool // Eng's packet free list
	pktID     uint64
	obs       stackObs
}

// stackObs holds the transport-layer observability instruments. The
// zero value (all nil) is the disabled state; every increment through
// a nil instrument is a no-op, so senders record unconditionally.
type stackObs struct {
	retx        *obs.Counter
	timeouts    *obs.Counter
	probes      *obs.Counter
	rateUpdates *obs.Counter
	aborts      *obs.Counter
}

// newStack wires a Stack onto a host, drawing flow state from flows,
// and installs its packet handler.
func newStack(eng *sim.Engine, host *netem.Host, flows *flowPool) *Stack {
	st := &Stack{Eng: eng, Host: host, flows: flows, pkts: pkt.PoolOf(eng)}
	host.Handler = st.receive
	return st
}

// NICRate returns the host's access-link rate.
func (st *Stack) NICRate() netem.BitRate { return st.Host.Port().Rate() }

// Sender returns the sender for a flow, or nil.
func (st *Stack) Sender(id pkt.FlowID) *Sender { return st.senders[id] }

// NewPacket returns a zeroed packet from the engine's pool, stamped
// with this host as source and the next per-host packet id. Protocol
// subsystems that originate their own packets (ExpressPass credits)
// draw from the same pool and id sequence as the stack's senders.
func (st *Stack) NewPacket() *pkt.Packet {
	p := st.pkts.Get()
	st.pktID++
	p.ID = st.pktID
	p.Src = st.Host.ID()
	return p
}

// StartFlow begins transmitting the given flow from this stack's host.
func (st *Stack) StartFlow(spec workload.FlowSpec) *Sender {
	if spec.Src != st.Host.ID() {
		panic(fmt.Sprintf("transport: flow %d src %d started on host %d", spec.ID, spec.Src, st.Host.ID()))
	}
	if _, dup := st.senders[spec.ID]; dup {
		panic(fmt.Sprintf("transport: duplicate flow id %d", spec.ID))
	}
	s := newSender(st, spec)
	if st.senders == nil {
		st.senders = make(map[pkt.FlowID]*Sender)
	}
	st.senders[spec.ID] = s
	s.ctrl = st.NewControl(s)
	s.ctrl.Init(s)
	s.trySend()
	return s
}

// receive demultiplexes an arriving packet. The packet dies here: it
// returns to the pool once its handler is done, so no Control,
// CreditHandler or OnData hook may retain it past return.
func (st *Stack) receive(p *pkt.Packet) {
	switch p.Type {
	case pkt.Data, pkt.Probe:
		if p.Type == pkt.Data && st.OnData != nil {
			st.OnData(p)
		}
		st.receiverFor(p).onPacket(p)
	case pkt.Ack, pkt.ProbeAck:
		if s, ok := st.senders[p.Flow]; ok {
			s.onAck(p)
		}
	case pkt.Credit, pkt.CreditReq:
		if st.CreditHandler != nil {
			st.CreditHandler(p)
		}
	}
	st.pkts.Put(p)
}

func (st *Stack) receiverFor(p *pkt.Packet) *receiver {
	r, ok := st.receivers[p.Flow]
	if !ok {
		r = newReceiver(st, p)
		if st.receivers == nil {
			st.receivers = make(map[pkt.FlowID]*receiver)
		}
		st.receivers[p.Flow] = r
	}
	return r
}

// DropReceiver releases a flow's receiver record to the pool; the
// driver calls it on the destination stack when the flow ends, so
// receiver memory is bounded by the flows in flight. A retransmission
// still on the wire then finds no receiver and gets a fresh one
// (receiverFor), which acknowledges it and stays until the run ends.
func (st *Stack) DropReceiver(id pkt.FlowID) {
	if r, ok := st.receivers[id]; ok {
		delete(st.receivers, id)
		st.flows.putReceiver(r)
	}
}

// flowEnded finalizes a sender that completed or was killed: the flow
// leaves the stack, its record goes to the collector (an aborted flow
// is recorded as incomplete with the Aborted mark, so the Summary
// reports it apart from flows the run merely cut off), the completion
// hooks run, and the sender record goes back to the pool.
func (st *Stack) flowEnded(s *Sender) {
	delete(st.senders, s.Spec.ID)
	if s.Aborted {
		st.obs.aborts.Inc()
	}
	if st.Collector != nil && !s.Spec.Background {
		st.Collector.Add(s.record())
	}
	if st.OnFlowDone != nil {
		st.OnFlowDone(s)
	}
	st.flows.putSender(s)
}
