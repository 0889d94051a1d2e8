// Package netem provides the network elements of the simulator:
// rate-limited links with propagation delay, output ports with
// pluggable queue disciplines (drop-tail, RED with DCTCP-style ECN
// marking, multi-band strict-priority PRIO, and the pFabric shared
// queue with priority dropping and priority scheduling), and
// output-queued switches.
//
// The packet path is: sender host -> Port.Send -> queue -> serialized
// onto the link at the port rate -> propagation delay -> peer port ->
// owning Node.Receive. Switches route to one of their ports and the
// cycle repeats.
package netem

import (
	"fmt"

	"pase/internal/pkt"
	"pase/internal/sim"
)

// BitRate is a link speed in bits per second.
type BitRate int64

// Common rates.
const (
	Mbps BitRate = 1e6
	Gbps BitRate = 1e9
)

func (r BitRate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGbps", r/Gbps)
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dMbps", r/Mbps)
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// Serialize returns the time to clock size bytes onto a link of rate r.
func (r BitRate) Serialize(size int32) sim.Duration {
	if r <= 0 {
		panic("netem: serialization on zero-rate link")
	}
	return sim.Duration(int64(size) * 8 * int64(sim.Second) / int64(r))
}

// Node is anything that terminates a link: a host or a switch.
type Node interface {
	ID() pkt.NodeID
	// Receive is invoked when a packet fully arrives on one of the
	// node's ports.
	Receive(p *pkt.Packet, on *Port)
}
