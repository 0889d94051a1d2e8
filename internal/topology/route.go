package topology

import (
	"pase/internal/pkt"
)

// RouteTable is one leaf's forwarding state over its spine uplinks:
// per-flow ECMP that the routing control loop detours around failed
// links at run time. It replaces the closed-over ECMP hash that froze
// routing at build time.
//
// Edits change the table in place. A routed run keeps the serial
// engine, so every read and edit happens on its one goroutine: no
// reader can see an edit half done and no atomics or copies are
// needed.
//
// Determinism contract: with no down links the table is "clean" and
// Pick is ECMPSpine exactly, so a run that never edits the table is
// byte-identical to one built before route tables existed.
type RouteTable struct {
	spines int
	// ports[s] is the leaf's egress port index toward spine s.
	ports []int
	// upDown[s] counts outages on the leaf→spine s uplink.
	upDown []int32
	// dstDown[q][s] counts outages on the spine s → leaf q downlink;
	// while positive, flows to rack q avoid spine s.
	dstDown [][]int32
	// dirty counts the outages in force; at 0 the table is clean and
	// Pick is the pure ECMP hash.
	dirty int
}

// NewRouteTable builds the clean table for one leaf. ports maps spine
// index → the leaf's egress port index for that spine; racks is the
// leaf count (the destination-rack dimension of downlink state). The
// first argument, the leaf's own rack, is unused.
func NewRouteTable(_ int, ports []int, racks int) *RouteTable {
	spines := len(ports)
	t := &RouteTable{
		spines: spines, ports: ports,
		upDown:  make([]int32, spines),
		dstDown: make([][]int32, racks),
	}
	for q := range t.dstDown {
		t.dstDown[q] = make([]int32, spines)
	}
	return t
}

// Clean reports whether the table still reproduces the pure ECMP hash.
func (t *RouteTable) Clean() bool { return t.dirty == 0 }

// Avail reports whether spine s can carry this leaf's traffic to
// dstRack (uplink and far-side downlink both up).
func (t *RouteTable) Avail(dstRack, s int) bool {
	return t.upDown[s] == 0 && t.dstDown[dstRack][s] == 0
}

// PickFrom resolves a flow hashed onto spine s for destination rack
// dstRack: s if it is usable, else the first usable spine scanning
// upward from it (minimal churn — only flows whose spine died move,
// and they all detour the same way, so recovery restores them
// exactly). With nothing usable s is returned and the packet
// blackholes at the dead link, where the fault layer counts it.
func (t *RouteTable) PickFrom(dstRack, s int) int {
	if t.Avail(dstRack, s) {
		return s
	}
	for k := 1; k < t.spines; k++ {
		if c := (s + k) % t.spines; t.Avail(dstRack, c) {
			return c
		}
	}
	return s
}

// Pick returns the spine index carrying flow → dstRack. The clean
// fast path is the pure ECMP hash.
func (t *RouteTable) Pick(dstRack int, flow pkt.FlowID) int {
	if t.dirty == 0 {
		return ECMPSpine(flow, t.spines)
	}
	return t.PickFrom(dstRack, ECMPSpine(flow, t.spines))
}

// PickPort returns the leaf's egress port index for flow → dstRack.
func (t *RouteTable) PickPort(dstRack int, flow pkt.FlowID) int {
	return t.ports[t.Pick(dstRack, flow)]
}

// setOutage moves one nesting outage count up or down (an up with no
// outage in force is ignored) and keeps dirty in step.
func (t *RouteTable) setOutage(n *int32, down bool) {
	switch {
	case down:
		*n++
		t.dirty++
	case *n > 0:
		*n--
		t.dirty--
	}
}

// SetUplink marks the leaf→spine s uplink down or up; outages nest (a
// link downed twice needs two ups).
func (t *RouteTable) SetUplink(s int, down bool) { t.setOutage(&t.upDown[s], down) }

// SetDstDown marks the spine s → rack dstRack downlink down or up;
// outages nest.
func (t *RouteTable) SetDstDown(dstRack, s int, down bool) {
	t.setOutage(&t.dstDown[dstRack][s], down)
}
