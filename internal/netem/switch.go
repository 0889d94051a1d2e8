package netem

import (
	"fmt"

	"pase/internal/pkt"
)

// Switch is an output-queued switch: packets arriving on any port are
// routed (via the table installed by the topology) to an egress port
// and enqueued there. All queueing behaviour lives in the egress
// queue discipline.
type Switch struct {
	id    pkt.NodeID
	name  string
	ports []*Port
	// nextHop[dst] is the egress port index for destination host dst,
	// stored +1 so that 0 (and any id past the end) means "no entry".
	// Host ids are dense from 0, so a slice gives every hop a bounds
	// check instead of a map probe and every switch a table a fraction
	// of a map's size.
	nextHop []int32
	// FlowRoute, when set, routes packets whose destination has no
	// nextHop entry — multipath fabrics hash the flow id here (ECMP).
	FlowRoute func(p *pkt.Packet) int
}

// NewSwitch creates a switch with the given id and name.
func NewSwitch(id pkt.NodeID, name string) *Switch {
	return &Switch{id: id, name: name}
}

// ID implements Node.
func (s *Switch) ID() pkt.NodeID { return s.id }

// Name returns the switch's human-readable label.
func (s *Switch) Name() string { return s.name }

// AddPort registers an egress port and returns its index.
func (s *Switch) AddPort(p *Port) int {
	s.ports = append(s.ports, p)
	return len(s.ports) - 1
}

// Port returns port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// Ports returns all ports of the switch.
func (s *Switch) Ports() []*Port { return s.ports }

// SetRoute installs the egress port index for a destination host.
func (s *Switch) SetRoute(dst pkt.NodeID, portIndex int) {
	if int(dst) >= len(s.nextHop) {
		s.nextHop = append(s.nextHop, make([]int32, int(dst)+1-len(s.nextHop))...)
	}
	s.nextHop[dst] = int32(portIndex) + 1
}

// route looks up the static egress port index for dst.
func (s *Switch) route(dst pkt.NodeID) (int, bool) {
	if uint(dst) >= uint(len(s.nextHop)) || s.nextHop[dst] == 0 {
		return 0, false
	}
	return int(s.nextHop[dst]) - 1, true
}

// NextPort resolves the egress port a packet for (dst, flow) would
// take, without forwarding anything: the routing-control validity
// walks use it to traverse the fabric off the data path. Returns nil
// when the switch has no route (a model bug Receive would panic on).
func (s *Switch) NextPort(dst pkt.NodeID, flow pkt.FlowID) *Port {
	if idx, ok := s.route(dst); ok {
		return s.ports[idx]
	}
	if s.FlowRoute == nil {
		return nil
	}
	return s.ports[s.FlowRoute(&pkt.Packet{Dst: dst, Flow: flow})]
}

// Receive implements Node: route and forward.
func (s *Switch) Receive(p *pkt.Packet, _ *Port) {
	p.Hops++
	if p.Hops > 32 {
		panic(fmt.Sprintf("netem: routing loop for %v at %s", p, s.name))
	}
	idx, ok := s.route(p.Dst)
	if !ok {
		if s.FlowRoute == nil {
			panic(fmt.Sprintf("netem: %s has no route to node %d", s.name, p.Dst))
		}
		idx = s.FlowRoute(p)
	}
	s.ports[idx].Send(p)
}
