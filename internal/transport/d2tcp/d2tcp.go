// Package d2tcp implements Deadline-Aware Data Center TCP (Vamanan et
// al., SIGCOMM 2012). D2TCP keeps DCTCP's ECN machinery but gamma-
// corrects the backoff with deadline imminence: the penalty applied on
// congestion is p = alpha^d, where d > 1 for flows close to their
// deadline (they back off less) and d < 1 for far-from-deadline flows
// (they back off more). Flows without deadlines use d = 1 and degrade
// to DCTCP exactly.
package d2tcp

import (
	"math"

	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/transport"
)

// Config holds D2TCP parameters.
type Config struct {
	G         float64
	InitCwnd  float64
	MinRTO    sim.Duration
	AlphaInit float64
	// DMin/DMax clamp the deadline-imminence exponent (the paper uses
	// [0.5, 2.0]).
	DMin, DMax float64
}

// DefaultConfig returns the paper's parameterization.
func DefaultConfig() Config {
	return Config{
		G:        1.0 / 16.0,
		InitCwnd: 10,
		MinRTO:   10 * sim.Millisecond,
		DMin:     0.5,
		DMax:     2.0,
	}
}

// New returns a Control factory.
func New(cfg Config) func(*transport.Sender) transport.Control {
	return func(s *transport.Sender) transport.Control {
		c := transport.ReuseControl[control](s)
		*c = control{cfg: cfg}
		return c
	}
}

type control struct {
	cfg Config

	alpha     float64
	acks      int32
	marked    int32
	windowEnd int32
	cutEnd    int32
}

// Init implements transport.Control.
func (c *control) Init(s *transport.Sender) {
	c.alpha = c.cfg.AlphaInit
	s.Cwnd = c.cfg.InitCwnd
	s.SSThresh = 1 << 20
	c.cutEnd = -1
}

// imminence computes the deadline-imminence exponent d = Tc/D: the
// ratio of the time the flow still needs at its current rate (Tc) to
// the time left until its deadline (D).
func (c *control) imminence(s *transport.Sender) float64 {
	if s.Spec.Deadline == 0 {
		return 1 // no deadline: behave exactly like DCTCP
	}
	left := s.Spec.Deadline.Sub(s.Now())
	if left <= 0 {
		return c.cfg.DMax // already late: be as aggressive as allowed
	}
	// Time needed: remaining bytes at ~3/4 of the current window per
	// RTT (the sawtooth average the paper uses).
	rtt := s.RTT().Seconds()
	ratePkts := 0.75 * s.Cwnd / rtt // segments per second
	if ratePkts <= 0 {
		return c.cfg.DMax
	}
	tc := float64(s.Remaining()) / float64(pkt.MSS) / ratePkts
	d := tc / left.Seconds()
	if d < c.cfg.DMin {
		d = c.cfg.DMin
	}
	if d > c.cfg.DMax {
		d = c.cfg.DMax
	}
	return d
}

// OnAck implements transport.Control.
func (c *control) OnAck(s *transport.Sender, ack *pkt.Packet, newly int32, _ sim.Duration) {
	c.acks++
	if ack.Echo {
		c.marked++
	}
	if s.CumAck() > c.windowEnd {
		f := 0.0
		if c.acks > 0 {
			f = float64(c.marked) / float64(c.acks)
		}
		c.alpha = (1-c.cfg.G)*c.alpha + c.cfg.G*f
		c.acks, c.marked = 0, 0
		c.windowEnd = s.NextWindowEdge()
	}

	if ack.Echo {
		if s.CumAck() > c.cutEnd {
			// Gamma-corrected penalty: p = alpha^d.
			p := math.Pow(c.alpha, c.imminence(s))
			s.Cwnd = s.Cwnd * (1 - p/2)
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
	for i := int32(0); i < newly; i++ {
		if s.Cwnd < s.SSThresh {
			s.Cwnd++
		} else {
			s.Cwnd += 1 / s.Cwnd
		}
	}
}

// OnLoss implements transport.Control.
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
	return false
}

// FillData implements transport.Control.
func (c *control) FillData(s *transport.Sender, p *pkt.Packet) {
	p.ECT = true
	p.Prio = s.Prio
}

// MinRTO implements transport.Control.
func (c *control) MinRTO(*transport.Sender) sim.Duration { return c.cfg.MinRTO }
