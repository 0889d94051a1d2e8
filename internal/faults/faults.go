// Package faults is the deterministic fault-injection subsystem: a
// seed-driven FaultPlan schedules link down/up events, per-link
// probabilistic loss and corruption split by packet class, arbitration
// request/response drop and delay, and arbitrator crash/restart with
// soft-state wipe. An Injector built from the plan threads the faults
// into the network (netem port hooks), the event heap (scheduled
// outage and crash events) and the PASE control plane (the
// arbitration.ControlFaults interface).
//
// Every random decision draws from the plan's own seeded RNG stream,
// separate from the workload stream, so a nil, empty or
// non-interfering plan leaves a run byte-identical to a fault-free
// one.
package faults

import (
	"fmt"
	"math"

	"pase/internal/pkt"
	"pase/internal/sim"
)

// Class selects which packets a loss rule applies to.
type Class uint8

const (
	// Any matches every packet.
	Any Class = iota
	// DataClass matches payload-bearing data packets.
	DataClass
	// AckClass matches acknowledgements.
	AckClass
	// CtrlClass matches control traffic: PASE's probes and probe-acks.
	CtrlClass
)

// Matches reports whether a packet of the given type falls under the
// class.
func (c Class) Matches(t pkt.Type) bool {
	switch c {
	case Any:
		return true
	case DataClass:
		return t == pkt.Data
	case AckClass:
		return t == pkt.Ack
	case CtrlClass:
		return t == pkt.Probe || t == pkt.ProbeAck
	}
	return false
}

// String returns the spec-grammar name of the class.
func (c Class) String() string {
	switch c {
	case Any:
		return "any"
	case DataClass:
		return "data"
	case AckClass:
		return "ack"
	case CtrlClass:
		return "ctrl"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// parseClass inverts String.
func parseClass(s string) (Class, error) {
	switch s {
	case "any":
		return Any, nil
	case "data":
		return DataClass, nil
	case "ack":
		return AckClass, nil
	case "ctrl":
		return CtrlClass, nil
	}
	return Any, fmt.Errorf("faults: unknown packet class %q (want any, data, ack or ctrl)", s)
}

// LinkFault takes one directed link down for a window, optionally
// repeating. While down the port's transmitter is paused: packets
// accumulate in (and overflow) the egress queue and drain when the
// link comes back.
type LinkFault struct {
	// Link is the topology link ID; -1 means every link.
	Link int
	// At is when the link first goes down; For is the outage length.
	At, For sim.Duration
	// Every repeats the outage with this period (0 = once).
	Every sim.Duration
}

// LossFault drops (or corrupts) packets leaving a link's transmitter
// with a fixed probability. Corrupted packets differ from dropped ones
// only in accounting: both consume link bandwidth and never reach the
// receiver (a corrupted packet fails its checksum there).
type LossFault struct {
	// Link is the topology link ID; -1 means every link.
	Link int
	// Class restricts the rule to one packet class.
	Class Class
	// Rate is the per-packet drop probability in [0, 1].
	Rate float64
	// Corrupt is the per-packet corruption probability in [0, 1],
	// applied to packets that survived the drop draw.
	Corrupt float64
	// From / To bound the active window; To = 0 means open-ended.
	From, To sim.Duration
}

// CtrlFault drops or delays arbitration control messages. Drop is
// drawn independently for the request leg and the response leg of
// every remote arbitration exchange; Delay is added to each surviving
// leg's latency.
type CtrlFault struct {
	// Drop is the per-message loss probability in [0, 1].
	Drop float64
	// Delay is added one-way latency per surviving message.
	Delay sim.Duration
	// From / To bound the active window; To = 0 means open-ended.
	From, To sim.Duration
}

// CrashFault crashes an arbitrator: its soft state (flow table and
// cached allocations) is wiped and it stays unreachable until the
// restart, after which state rebuilds from subsequent refreshes.
type CrashFault struct {
	// Link is the arbitrator's link ID; -1 crashes every arbitrator.
	Link int
	// At is the crash instant; For is the downtime before restart
	// (0 = never restarts).
	At, For sim.Duration
	// Every repeats the crash with this period (0 = once).
	Every sim.Duration
}

// Plan is a complete, deterministic fault schedule for one run.
type Plan struct {
	// Seed drives the plan's private RNG stream. Two runs with equal
	// workload seeds and equal plans are identical; changing Seed
	// re-rolls only the fault draws.
	Seed uint64

	Links   []LinkFault
	Loss    []LossFault
	Ctrl    []CtrlFault
	Crashes []CrashFault
}

// Empty reports whether the plan injects nothing; RunPoint skips the
// injector entirely then, keeping the run bit-identical to a nil plan.
func (p *Plan) Empty() bool {
	return p == nil ||
		(len(p.Links) == 0 && len(p.Loss) == 0 && len(p.Ctrl) == 0 && len(p.Crashes) == 0)
}

// minRepeat bounds repeating rules: a sub-10µs period would flood the
// event heap with fault events.
const minRepeat = 10 * sim.Microsecond

// Validate checks every rule for in-range probabilities and sane
// windows. Parse calls it; hand-built plans should too.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	prob := func(v float64, what string) error {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("faults: %s %v outside [0, 1]", what, v)
		}
		return nil
	}
	link := func(l int, what string) error {
		if l < -1 {
			return fmt.Errorf("faults: %s link id %d (want >= 0, or -1 for all)", what, l)
		}
		return nil
	}
	for _, r := range p.Links {
		if err := link(r.Link, "linkdown"); err != nil {
			return err
		}
		if r.At < 0 || r.For <= 0 {
			return fmt.Errorf("faults: linkdown needs at >= 0 and for > 0 (got at=%v for=%v)", r.At, r.For)
		}
		if r.Every != 0 && r.Every < minRepeat {
			return fmt.Errorf("faults: linkdown repeat period %v below %v", r.Every, minRepeat)
		}
	}
	for _, r := range p.Loss {
		if err := link(r.Link, "loss"); err != nil {
			return err
		}
		if err := prob(r.Rate, "loss rate"); err != nil {
			return err
		}
		if err := prob(r.Corrupt, "corrupt rate"); err != nil {
			return err
		}
		if r.From < 0 || r.To < 0 || (r.To != 0 && r.To <= r.From) {
			return fmt.Errorf("faults: loss window [%v, %v) is empty", r.From, r.To)
		}
	}
	for _, r := range p.Ctrl {
		if err := prob(r.Drop, "ctrl drop"); err != nil {
			return err
		}
		if r.Delay < 0 {
			return fmt.Errorf("faults: negative ctrl delay %v", r.Delay)
		}
		if r.From < 0 || r.To < 0 || (r.To != 0 && r.To <= r.From) {
			return fmt.Errorf("faults: ctrl window [%v, %v) is empty", r.From, r.To)
		}
	}
	for _, r := range p.Crashes {
		if err := link(r.Link, "crash"); err != nil {
			return err
		}
		if r.At < 0 || r.For < 0 {
			return fmt.Errorf("faults: crash needs at >= 0 and for >= 0 (got at=%v for=%v)", r.At, r.For)
		}
		if r.Every != 0 && r.Every < minRepeat {
			return fmt.Errorf("faults: crash repeat period %v below %v", r.Every, minRepeat)
		}
	}
	return nil
}

// activeWindow reports whether now falls inside [from, to), with
// to = 0 meaning open-ended.
func activeWindow(now, from, to sim.Duration) bool {
	return now >= from && (to == 0 || now < to)
}
