// Package dctcp implements Data Center TCP (Alizadeh et al., SIGCOMM
// 2010): senders estimate the fraction of ECN-marked packets with a
// per-window EWMA (alpha) and cut the congestion window in proportion
// to it, keeping switch queues short while sustaining throughput.
//
// DCTCP is the paper's representative of the self-adjusting-endpoint
// strategy and the substrate PASE's own rate-control laws reuse: the
// law is Window, Grow and Halve, which PASE's end host calls too. The
// package also holds the two baselines that change one term of it,
// D2TCP (NewD2TCP) and L2DCT (NewL2DCT).
package dctcp

import (
	"math"

	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/transport"
)

// Gain is the EWMA gain g for alpha (1/16 in the paper).
const Gain = 1.0 / 16.0

// Config holds the parameters of DCTCP and its two variants (Table 3).
type Config struct {
	G        float64      // EWMA gain for alpha
	InitCwnd float64      // initial window in segments
	MinRTO   sim.Duration // retransmission-timeout floor
	// D2TCP clamps its deadline-imminence exponent to [DMin, DMax]
	// (paper: [0.5, 2.0]). L2DCT bounds its increase weight to
	// [WMin, WMax] (paper: 0.125 and 2.5) and decays it toward WMin
	// over DecaySegs segments of attained service.
	DMin, DMax, WMin, WMax, DecaySegs float64
}

// DefaultConfig returns the paper's parameterization.
func DefaultConfig() Config {
	return Config{
		G:         Gain,
		InitCwnd:  10,
		MinRTO:    10 * sim.Millisecond,
		DMin:      0.5,
		DMax:      2.0,
		WMin:      0.125,
		WMax:      2.5,
		DecaySegs: 100,
	}
}

// Window is one flow's DCTCP ECN state: the mark-fraction estimate and
// the once-per-window guards on its refresh and on the cut.
type Window struct {
	// Alpha is the smoothed fraction of marked packets.
	Alpha float64
	// Acks and marked acks since the last alpha refresh, which
	// happens when cumAck passes windowEnd; cutEnd allows one cut per
	// window of data.
	acks, marked, windowEnd, cutEnd int32
}

// Reset starts the window over for a new flow.
func (w *Window) Reset() { *w = Window{cutEnd: -1} }

// Mark counts ack, refreshes Alpha with gain g once per window of
// data, and reports whether ack echoes a congestion mark.
func (w *Window) Mark(s *transport.Sender, ack *pkt.Packet, g float64) bool {
	w.acks++
	if ack.Echo {
		w.marked++
	}
	if s.CumAck() > w.windowEnd {
		f := 0.0
		if w.acks > 0 {
			f = float64(w.marked) / float64(w.acks)
		}
		w.Alpha = (1-g)*w.Alpha + g*f
		w.acks, w.marked = 0, 0
		w.windowEnd = s.NextWindowEdge()
	}
	return ack.Echo
}

// Due reports whether the current window of data has not been cut yet.
func (w *Window) Due(s *transport.Sender) bool { return s.CumAck() > w.cutEnd }

// Cut applies the proportional decrease Cwnd·(1 − p/2), floored at one
// segment, and closes the current window to further cuts.
func (w *Window) Cut(s *transport.Sender, p float64) {
	s.Cwnd = s.Cwnd * (1 - p/2)
	if s.Cwnd < 1 {
		s.Cwnd = 1
	}
	w.cutEnd = s.NextWindowEdge()
}

// Grow applies TCP-standard growth for newly acknowledged segments,
// each step scaled by gain: +gain in slow start, +gain/Cwnd after.
func Grow(s *transport.Sender, newly int32, gain float64) {
	for i := int32(0); i < newly; i++ {
		if s.Cwnd < s.SSThresh {
			s.Cwnd += gain
		} else {
			s.Cwnd += gain / s.Cwnd
		}
	}
}

// Halve sets SSThresh to max(Cwnd/2, 2): the response to a loss or a
// timeout.
func Halve(s *transport.Sender) {
	s.SSThresh = s.Cwnd / 2
	if s.SSThresh < 2 {
		s.SSThresh = 2
	}
}

// New returns a DCTCP Control factory: p = alpha, gain 1.
func New(cfg Config) func(*transport.Sender) transport.Control {
	return factory(law{cfg, func(c *control, _ *transport.Sender) float64 { return c.w.Alpha }, unitGain})
}

// NewD2TCP returns a D2TCP (Vamanan et al., SIGCOMM 2012) Control
// factory: p = alpha^d, gain 1. The deadline-imminence exponent d is
// > 1 for flows close to their deadline (they back off less) and < 1
// for far-from-deadline flows; without a deadline d = 1, which is
// DCTCP exactly.
func NewD2TCP(cfg Config) func(*transport.Sender) transport.Control {
	return factory(law{cfg, func(c *control, s *transport.Sender) float64 {
		return math.Pow(c.w.Alpha, c.imminence(s))
	}, unitGain})
}

// NewL2DCT returns an L2DCT (Munir et al., INFOCOM 2013) Control
// factory: p = bc·alpha, gain wc. Approximating least-attained-service
// scheduling, the weight wc decays exponentially with the segments the
// flow has sent, matching the published weights at the endpoints, and
// bc grows with them: young flows ramp fast, old ones yield more.
func NewL2DCT(cfg Config) func(*transport.Sender) transport.Control {
	return factory(law{cfg, func(c *control, s *transport.Sender) float64 {
		young := (c.weight(s) - c.cfg.WMin) / (c.cfg.WMax - c.cfg.WMin) // 1 young .. 0 old
		return (1 - 0.5*young) * c.w.Alpha
	}, (*control).weight})
}

func unitGain(*control, *transport.Sender) float64 { return 1 }

func factory(l law) func(*transport.Sender) transport.Control {
	return func(s *transport.Sender) transport.Control {
		c := transport.ReuseControl[control](s)
		*c = control{law: &l}
		return c
	}
}

// law is one factory's config and hooks, shared by every control it
// makes: penalty computes the cut's p, gain scales each growth step.
type law struct {
	cfg           Config
	penalty, gain func(*control, *transport.Sender) float64
}

// control is per-flow state of DCTCP or one of its variants.
type control struct {
	*law
	w Window
}

// Init implements transport.Control.
func (c *control) Init(s *transport.Sender) {
	c.w.Reset()
	s.Cwnd = c.cfg.InitCwnd
	s.SSThresh = 1 << 20
}

// OnAck implements transport.Control: the law, with this control's
// penalty on echoed marks and its gain on growth.
func (c *control) OnAck(s *transport.Sender, ack *pkt.Packet, newly int32, _ sim.Duration) {
	if c.w.Mark(s, ack, c.cfg.G) {
		if c.w.Due(s) {
			c.w.Cut(s, c.penalty(c, s))
		}
		return
	}
	if newly > 0 {
		Grow(s, newly, c.gain(c, s))
	}
}

// imminence computes D2TCP's exponent d = Tc/D: the time the flow
// still needs at its current rate over the time left to its deadline.
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

// weight returns L2DCT's increase weight wc for the flow's attained
// service.
func (c *control) weight(s *transport.Sender) float64 {
	attained := float64(s.AckedBytes()) / float64(pkt.MSS)
	w := c.cfg.WMax * math.Exp(-attained/c.cfg.DecaySegs)
	if w < c.cfg.WMin {
		w = c.cfg.WMin
	}
	return w
}

// OnLoss implements transport.Control: halving on fast retransmit.
func (c *control) OnLoss(s *transport.Sender) {
	Halve(s)
	s.Cwnd = s.SSThresh
}

// OnTimeout implements transport.Control.
func (c *control) OnTimeout(s *transport.Sender) bool {
	Halve(s)
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
