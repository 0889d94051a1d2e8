package netem

import (
	"fmt"
	"strconv"

	"pase/internal/pkt"
)

// Switch is an output-queued switch: packets arriving on any port are
// routed to an egress port and enqueued there. All queueing behaviour
// lives in the egress queue discipline.
//
// Routes are structural, not a table: hosts [first, first+count) hang
// below the switch, per of them behind each of its leading ports in
// host order (SetDown); every other destination leaves by the up port
// (SetUp) or, on a switch without one, by FlowRoute. A switch's routing
// state is five words whatever the fabric's size.
type Switch struct {
	id    pkt.NodeID
	kind  string
	index int
	ports []*Port

	first, count, per uint32
	// up is the default egress port index, -1 when the switch has none.
	up int32
	// FlowRoute, when set, routes destinations that are neither below
	// the switch nor covered by an up port — multipath fabrics hash the
	// flow id here (ECMP).
	FlowRoute func(dst pkt.NodeID, flow pkt.FlowID) int
}

// NewSwitch creates a switch that will carry the given number of ports.
// Its name is kind followed by index ("tor3"), or kind alone when index
// is negative ("core").
func NewSwitch(id pkt.NodeID, kind string, index, ports int) *Switch {
	return &Switch{id: id, kind: kind, index: index, ports: make([]*Port, 0, ports), up: -1}
}

// ID implements Node.
func (s *Switch) ID() pkt.NodeID { return s.id }

// Name returns the switch's human-readable label, formatted on demand:
// only diagnostics read it.
func (s *Switch) Name() string {
	if s.index < 0 {
		return s.kind
	}
	return s.kind + strconv.Itoa(s.index)
}

// AddPort registers an egress port and returns its index.
func (s *Switch) AddPort(p *Port) int {
	s.ports = append(s.ports, p)
	return len(s.ports) - 1
}

// Port returns port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// Ports returns all ports of the switch.
func (s *Switch) Ports() []*Port { return s.ports }

// SetDown declares the hosts below the switch: ids [first, first+count),
// per consecutive ids behind each port, ports 0, 1, … in host order.
func (s *Switch) SetDown(first pkt.NodeID, count, per int) {
	s.first, s.count, s.per = uint32(first), uint32(count), uint32(per)
}

// SetUp installs the egress port index for every destination that is
// not below the switch.
func (s *Switch) SetUp(portIndex int) { s.up = int32(portIndex) }

// route resolves the egress port index for (dst, flow); ok is false
// when the switch has no route.
func (s *Switch) route(dst pkt.NodeID, flow pkt.FlowID) (int, bool) {
	// One unsigned compare covers both ends of the range: an id below
	// first wraps past count.
	if off := uint32(dst) - s.first; off < s.count {
		return int(off / s.per), true
	}
	if s.up >= 0 {
		return int(s.up), true
	}
	if s.FlowRoute != nil {
		return s.FlowRoute(dst, flow), true
	}
	return 0, false
}

// Receive implements Node: route and forward.
func (s *Switch) Receive(p *pkt.Packet, _ *Port) {
	p.Hops++
	if p.Hops > 32 {
		panic(fmt.Sprintf("netem: routing loop for %v at %s", p, s.Name()))
	}
	idx, ok := s.route(p.Dst, p.Flow)
	if !ok {
		panic(fmt.Sprintf("netem: %s has no route to node %d", s.Name(), p.Dst))
	}
	s.ports[idx].Send(p)
}
