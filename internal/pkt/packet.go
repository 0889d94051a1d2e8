// Package pkt defines the packet model shared by every layer of the
// simulator: data segments, acknowledgements, loss-recovery probes and
// control-plane (arbitration) messages, together with the header fields
// the transports under study need — ECN bits, a strict-priority class
// for PRIO switches, a fine-grained rank for pFabric switches, and a
// per-protocol opaque header.
package pkt

import (
	"fmt"

	"pase/internal/sim"
)

// NodeID identifies a host or switch in the simulated network.
type NodeID int32

// FlowID identifies one flow (a single request/response transfer or a
// long-running connection) across the whole simulation.
type FlowID uint64

// Type discriminates the kinds of packets that traverse the fabric.
type Type uint8

const (
	// Data carries MSS-sized (or trailing) payload of a flow.
	Data Type = iota
	// Ack acknowledges data cumulatively and echoes congestion marks.
	Ack
	// Probe is PASE's small loss-discrimination packet: it asks the
	// receiver "did my data get stuck or dropped?" without resending
	// the payload.
	Probe
	// ProbeAck answers a Probe.
	ProbeAck
	// Credit is an ExpressPass-style minimum-size credit packet sent
	// by a receiver; each credit entitles the sender to transmit one
	// data segment on the reverse path.
	Credit
	// CreditReq opens a credit-based flow: the sender asks the
	// receiver to start pacing credits toward it.
	CreditReq
)

var typeNames = [...]string{"DATA", "ACK", "PROBE", "PROBEACK", "CREDIT", "CREDITREQ"}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Wire-size constants (bytes). MSS-sized data packets occupy MTU bytes
// on the wire; headers-only packets occupy HeaderSize.
const (
	MTU        = 1500
	HeaderSize = 40
	MSS        = MTU - HeaderSize
	// CtrlSize is the wire size of one arbitration message.
	CtrlSize = 64
	// CreditSize is the wire size of one ExpressPass credit packet
	// (the minimum Ethernet frame, per the ExpressPass paper).
	CreditSize = 84
)

// Packet is a single simulated packet. Packets are passed by pointer
// and owned by whichever component currently holds them; they are not
// copied as they traverse queues and links. The transport layer draws
// them from the engine's Pool and the component a packet dies at
// releases it, so a handler must not retain one past its return.
type Packet struct {
	ID   uint64
	Flow FlowID
	Src  NodeID
	Dst  NodeID
	Type Type

	// Seq is the index of this data segment within its flow
	// (0-based). For Ack packets, CumAck below is the feedback.
	Seq int32
	// Size is the wire size in bytes, including headers.
	Size int32

	// Prio is the strict-priority class used by PRIO queues.
	// 0 is the highest priority; larger is lower.
	Prio int8
	// Rank is a fine-grained scheduling priority used by pFabric
	// queues (lower = more urgent). PASE and pFabric set it to the
	// flow's remaining size; PDQ to its deadline/size criterion.
	Rank int64

	// ECN state. ECT marks the packet ECN-capable; CE is set by a
	// congested queue; Echo carries CE back to the sender on an Ack.
	ECT  bool
	CE   bool
	Echo bool

	// Ack-specific feedback.
	CumAck   int32 // next expected sequence number
	SackSeq  int32 // the specific segment this (d)ACK acknowledges
	AckBytes int32 // newly acknowledged payload bytes
	// Have reports, on a ProbeAck, whether the receiver holds the
	// probed segment (PASE's loss-vs-delay discrimination).
	Have bool

	// CSeq is the credit sequence number: stamped by an ExpressPass
	// receiver on each Credit, echoed by the sender on the data packet
	// that credit triggered. The echo lets the receiver measure credit
	// loss precisely — only credits whose round trip completed count —
	// instead of guessing from a lagged send/receive ratio.
	CSeq int64

	// SentAt is stamped by the sender for RTT sampling; EnqAt by the
	// queue for queueing-delay accounting.
	SentAt sim.Time
	EnqAt  sim.Time

	// Hops counts the links traversed so far (TTL-style guard).
	Hops int8

	// origin is the pool bookkeeping (see pool.go).
	origin origin
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s flow=%d %d->%d seq=%d size=%dB prio=%d rank=%d",
		p.Type, p.Flow, p.Src, p.Dst, p.Seq, p.Size, p.Prio, p.Rank)
}

// DataPackets returns how many MSS segments a flow of size bytes needs.
func DataPackets(size int64) int32 {
	if size <= 0 {
		return 0
	}
	return int32((size + MSS - 1) / MSS)
}

// SegmentWireSize returns the on-the-wire size of segment seq of a flow
// with the given total payload size: MTU for full segments, smaller for
// the trailing one.
func SegmentWireSize(size int64, seq int32) int32 {
	n := DataPackets(size)
	if seq < 0 || seq >= n {
		return HeaderSize
	}
	if seq == n-1 {
		last := size - int64(n-1)*MSS
		return int32(last) + HeaderSize
	}
	return MTU
}
