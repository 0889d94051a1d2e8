package netem

import (
	"strconv"

	"pase/internal/pkt"
)

// Host is an end system with a single NIC port. The transport layer
// installs a Handler to receive packets; Send transmits through the
// NIC's egress queue (so hosts experience their own serialization
// delays and queueing, as the paper's endpoints do).
type Host struct {
	id      pkt.NodeID
	port    *Port
	Handler func(p *pkt.Packet)
}

// NewHost creates a host node.
func NewHost(id pkt.NodeID) *Host {
	return &Host{id: id}
}

// ID implements Node.
func (h *Host) ID() pkt.NodeID { return h.id }

// Name returns the host's label ("h7"), formatted on demand: only
// diagnostics read it.
func (h *Host) Name() string { return "h" + strconv.Itoa(int(h.id)) }

// SetPort attaches the NIC port (done by the topology builder).
func (h *Host) SetPort(p *Port) { h.port = p }

// Port returns the NIC port.
func (h *Host) Port() *Port { return h.port }

// Receive implements Node by delivering to the installed handler. With
// a checker on the NIC port, an arriving packet that was already
// released is a pkt_live violation.
func (h *Host) Receive(p *pkt.Packet, _ *Port) {
	if pt := h.port; pt != nil && pt.chk != nil && p.Released() {
		pt.chk.PktLive(h.Name(), uint64(p.Flow), true)
	}
	if h.Handler != nil {
		h.Handler(p)
	}
}

// Send transmits a packet out of the NIC.
func (h *Host) Send(p *pkt.Packet) {
	p.Hops++
	h.port.Send(p)
}
