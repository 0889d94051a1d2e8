// Package pfabric implements pFabric (Alizadeh et al., SIGCOMM 2013):
// near-optimal datacenter transport built from priority-aware switches
// plus deliberately minimal end-host rate control.
//
// Every data packet carries the flow's remaining size as its Rank;
// pFabric switches (netem.PFabric) schedule the most urgent packet
// first and drop the least urgent on overflow. The end host starts at
// line rate, never reacts to duplicate ACKs or ECN, recovers purely by
// a small fixed RTO, and drops to a one-packet probe window after
// repeated consecutive timeouts.
//
// This minimalism is exactly what the PASE paper probes in Figures 4
// and 10: under all-to-all patterns and high load, line-rate blasting
// wastes upstream capacity on packets that die at downstream hops.
package pfabric

import (
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/transport"
)

// Table 3's pFabric parameters.
const (
	// initCwnd is the initial (and cap) window in segments, the
	// paper's "start at line rate". A float constant, so initCwnd/2
	// stays a float division.
	initCwnd = 38.0
	// rto is the fixed retransmission timeout (~3×RTT).
	rto = sim.Millisecond
	// probeAfter is the number of consecutive timeouts after which the
	// flow enters probe mode (window 1).
	probeAfter = 5
)

// New returns a Control factory.
func New() func(*transport.Sender) transport.Control {
	return func(s *transport.Sender) transport.Control {
		c := transport.ReuseControl[control](s)
		*c = control{}
		return c
	}
}

type control struct {
	consecutive int // consecutive timeouts since the last ACK
}

// Init implements transport.Control.
func (c *control) Init(s *transport.Sender) {
	s.Cwnd = initCwnd
	s.SSThresh = initCwnd
	s.NoFastRetx = true
	s.FixedRTO = rto
}

// OnAck implements transport.Control: slow-start back toward the
// line-rate cap after losses; no reaction to marks or dupACKs. The
// aggressive regrowth is deliberate — pFabric relies on the fabric,
// not the endpoints, for contention resolution.
func (c *control) OnAck(s *transport.Sender, _ *pkt.Packet, newly int32, _ sim.Duration) {
	if newly > 0 {
		c.consecutive = 0
		if s.Cwnd < initCwnd {
			s.Cwnd += float64(newly) // exponential per RTT
			if s.Cwnd > initCwnd {
				s.Cwnd = initCwnd
			}
		}
	}
}

// OnLoss implements transport.Control (unreachable: fast retransmit is
// disabled).
func (c *control) OnLoss(*transport.Sender) {}

// OnTimeout implements transport.Control: re-enter slow start; after
// probeAfter consecutive timeouts, fall to a one-packet probe window.
func (c *control) OnTimeout(s *transport.Sender) bool {
	c.consecutive++
	if c.consecutive >= probeAfter {
		s.Cwnd = 1 // probe mode
		return false
	}
	s.Cwnd = initCwnd / 2
	return false
}

// FillData implements transport.Control: the remaining flow size is
// the packet's scheduling rank (lower = more urgent), giving
// shortest-remaining-first service fabric-wide.
func (c *control) FillData(s *transport.Sender, p *pkt.Packet) {
	p.ECT = false
	p.Rank = s.Remaining()
}

// MinRTO implements transport.Control (unused: FixedRTO is set).
func (c *control) MinRTO(*transport.Sender) sim.Duration { return rto }
