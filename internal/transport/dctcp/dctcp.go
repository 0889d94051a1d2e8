// Package dctcp implements Data Center TCP (Alizadeh et al., SIGCOMM
// 2010): senders estimate the fraction of ECN-marked packets with a
// per-window EWMA (alpha) and cut the congestion window in proportion
// to it, keeping switch queues short while sustaining throughput.
//
// DCTCP is the paper's representative of the self-adjusting-endpoint
// strategy and the substrate PASE's own rate-control laws reuse.
package dctcp

import (
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/transport"
)

// Config holds DCTCP parameters (Table 3 defaults).
type Config struct {
	// G is the EWMA gain for alpha (1/16 in the paper).
	G float64
	// InitCwnd is the initial window in segments.
	InitCwnd float64
	// MinRTO is the retransmission-timeout floor.
	MinRTO sim.Duration
	// AlphaInit seeds the mark-fraction estimate.
	AlphaInit float64
	// Prio is the priority class stamped on data packets (0 unless an
	// experiment runs DCTCP over PRIO queues).
	Prio int8
}

// DefaultConfig returns the standard parameterization.
func DefaultConfig() Config {
	return Config{
		G:         1.0 / 16.0,
		InitCwnd:  10,
		MinRTO:    10 * sim.Millisecond,
		AlphaInit: 0,
	}
}

// New returns a Control factory for the given configuration.
func New(cfg Config) func(*transport.Sender) transport.Control {
	return func(s *transport.Sender) transport.Control {
		c := transport.ReuseControl[control](s)
		*c = control{cfg: cfg}
		return c
	}
}

// control is per-flow DCTCP state.
type control struct {
	cfg Config

	// Alpha is the smoothed fraction of marked packets.
	Alpha float64

	// Per-window mark accounting: acks and marked acks since the last
	// alpha update, which happens when cumAck passes windowEnd.
	acks      int32
	marked    int32
	windowEnd int32

	// cutEnd guards against more than one multiplicative decrease per
	// window of data.
	cutEnd int32
}

// Init implements transport.Control.
func (c *control) Init(s *transport.Sender) {
	c.Alpha = c.cfg.AlphaInit
	s.Cwnd = c.cfg.InitCwnd
	s.SSThresh = 1 << 20
	s.Prio = c.cfg.Prio
	c.windowEnd = 0
	c.cutEnd = -1
}

// OnAck implements transport.Control: alpha bookkeeping, proportional
// decrease on echoed marks, standard slow-start/congestion-avoidance
// increase otherwise.
func (c *control) OnAck(s *transport.Sender, ack *pkt.Packet, newly int32, _ sim.Duration) {
	c.acks++
	if ack.Echo {
		c.marked++
	}

	// Once per window: refresh alpha.
	if s.CumAck() > c.windowEnd {
		f := 0.0
		if c.acks > 0 {
			f = float64(c.marked) / float64(c.acks)
		}
		c.Alpha = (1-c.cfg.G)*c.Alpha + c.cfg.G*f
		c.acks, c.marked = 0, 0
		c.windowEnd = s.NextWindowEdge()
	}

	if ack.Echo {
		// Proportional decrease, at most once per window.
		if s.CumAck() > c.cutEnd {
			s.Cwnd = s.Cwnd * (1 - c.Alpha/2)
			if s.Cwnd < 1 {
				s.Cwnd = 1
			}
			c.cutEnd = s.NextWindowEdge()
		}
		return
	}
	if newly <= 0 {
		return
	}
	c.increase(s, newly)
}

// increase applies TCP-standard window growth.
func (c *control) increase(s *transport.Sender, newly int32) {
	for i := int32(0); i < newly; i++ {
		if s.Cwnd < s.SSThresh {
			s.Cwnd++
		} else {
			s.Cwnd += 1 / s.Cwnd
		}
	}
}

// OnLoss implements transport.Control: classic halving on fast
// retransmit.
func (c *control) OnLoss(s *transport.Sender) {
	s.SSThresh = s.Cwnd / 2
	if s.SSThresh < 2 {
		s.SSThresh = 2
	}
	s.Cwnd = s.SSThresh
}

// OnTimeout implements transport.Control.
func (c *control) OnTimeout(s *transport.Sender) bool {
	s.SSThresh = s.Cwnd / 2
	if s.SSThresh < 2 {
		s.SSThresh = 2
	}
	s.Cwnd = 1
	return false // framework performs go-back-N recovery
}

// FillData implements transport.Control.
func (c *control) FillData(s *transport.Sender, p *pkt.Packet) {
	p.ECT = true
	p.Prio = s.Prio
}

// MinRTO implements transport.Control.
func (c *control) MinRTO(*transport.Sender) sim.Duration { return c.cfg.MinRTO }
