// Package l2dct implements L2DCT (Munir et al., INFOCOM 2013), the
// paper's size-aware self-adjusting baseline. L2DCT approximates
// least-attained-service scheduling on top of DCTCP's ECN machinery:
// a flow's window growth is scaled by a weight that decays with the
// bytes it has already sent (young/short flows ramp fast, old/long
// flows slowly), and its backoff is scaled the opposite way (long
// flows yield more under congestion).
//
// The published control laws are
//
//	increase: W <- W + wc/W per ACK, wc in [Wmin, Wmax]
//	decrease: W <- W (1 - bc·alpha/2), bc grows with attained service
//
// with the weight a decreasing function of data sent. We realize that
// function as an exponential decay over attained segments, which
// matches the published weights at the endpoints.
package l2dct

import (
	"math"

	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/transport"
)

// Config holds L2DCT parameters.
type Config struct {
	G         float64
	InitCwnd  float64
	MinRTO    sim.Duration
	AlphaInit float64
	// WMin/WMax bound the increase weight (paper: 0.125 and 2.5).
	WMin, WMax float64
	// DecaySegs is the attained-service scale (in segments) over
	// which the weight decays toward WMin.
	DecaySegs float64
}

// DefaultConfig returns the paper's parameterization (Table 3:
// minRTO = 10 ms).
func DefaultConfig() Config {
	return Config{
		G:         1.0 / 16.0,
		InitCwnd:  10,
		MinRTO:    10 * sim.Millisecond,
		WMin:      0.125,
		WMax:      2.5,
		DecaySegs: 100,
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

// weight returns the size-aware increase weight wc for the flow's
// current attained service.
func (c *control) weight(s *transport.Sender) float64 {
	attained := float64(s.AckedBytes()) / float64(pkt.MSS)
	w := c.cfg.WMax * math.Exp(-attained/c.cfg.DecaySegs)
	if w < c.cfg.WMin {
		w = c.cfg.WMin
	}
	return w
}

// backoffScale returns bc in [0.5, 1]: flows with more attained
// service back off harder.
func (c *control) backoffScale(s *transport.Sender) float64 {
	w := c.weight(s)
	frac := (w - c.cfg.WMin) / (c.cfg.WMax - c.cfg.WMin) // 1 young .. 0 old
	return 1 - 0.5*frac
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
			s.Cwnd = s.Cwnd * (1 - c.backoffScale(s)*c.alpha/2)
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
	wc := c.weight(s)
	for i := int32(0); i < newly; i++ {
		if s.Cwnd < s.SSThresh {
			s.Cwnd += wc // weighted slow start
		} else {
			s.Cwnd += wc / s.Cwnd
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
