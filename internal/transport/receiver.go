package transport

import (
	"pase/internal/pkt"
)

// receiver is the per-flow receive side: it tracks which segments have
// arrived and answers every data packet with an immediate ACK carrying
// cumulative and selective feedback plus the ECN echo for that packet
// (per-packet echo gives DCTCP-style senders an exact mark fraction).
// ACKs are small and travel in the top priority class so feedback is
// never starved by bulk data.
type receiver struct {
	st   *Stack
	flow pkt.FlowID
	src  pkt.NodeID // the flow's sender

	got          []bool
	firstMissing int32
}

// newReceiver takes a record from the engine's flow pool and starts it
// over; only the arrival map's backing array survives, emptied.
func newReceiver(st *Stack, first *pkt.Packet) *receiver {
	r := st.flows.receivers.Take()
	*r = receiver{st: st, flow: first.Flow, src: first.Src, got: r.got[:0]}
	return r
}

func (r *receiver) have(seq int32) bool {
	return seq >= 0 && int(seq) < len(r.got) && r.got[seq]
}

func (r *receiver) onPacket(p *pkt.Packet) {
	if r.st == nil {
		panic("transport: receiver touched after its release")
	}
	switch p.Type {
	case pkt.Data:
		r.noteData(p)
		r.reply(p, pkt.Ack, true)
	case pkt.Probe:
		r.reply(p, pkt.ProbeAck, r.have(p.Seq))
	}
}

func (r *receiver) noteData(p *pkt.Packet) {
	for int(p.Seq) >= len(r.got) {
		r.got = append(r.got, false)
	}
	r.got[p.Seq] = true
	for int(r.firstMissing) < len(r.got) && r.got[r.firstMissing] {
		r.firstMissing++
	}
}

func (r *receiver) reply(p *pkt.Packet, typ pkt.Type, have bool) {
	// Prio and Rank stay zero: feedback rides the top priority class.
	ack := r.st.NewPacket()
	ack.Flow = r.flow
	ack.Dst = p.Src
	ack.Type = typ
	ack.Seq = p.Seq
	ack.Size = pkt.HeaderSize
	ack.CumAck = r.firstMissing
	ack.SackSeq = p.Seq
	ack.Echo = p.CE
	ack.Have = have
	ack.SentAt = p.SentAt // echoed timestamp for RTT sampling
	if typ == pkt.Ack {
		ack.AckBytes = p.Size - pkt.HeaderSize
	}
	r.st.Host.Send(ack)
}
