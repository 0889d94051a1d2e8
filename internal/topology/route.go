package topology

import (
	"pase/internal/pkt"
)

// RouteBucketsPerSpine is the ECMP bucket granularity: every leaf's
// route table carries Spines × this many buckets, so traffic
// engineering can shift load in increments finer than a whole spine.
const RouteBucketsPerSpine = 8

// RouteTable is one leaf's forwarding state over its spine uplinks: a
// bucketed ECMP table that the routing control loop can edit at run
// time. It replaces the closed-over ECMP hash that froze routing at
// build time.
//
// Edits change the table in place. A routed run keeps the serial
// engine, so every read and edit happens on its one goroutine: no
// reader can see an edit half done and no atomics or copies are
// needed.
//
// Determinism contract: with no overrides and no down links the table
// is "clean" and Pick reproduces ECMPSpine exactly — bucket count is a
// multiple of the spine count and the default bucket→spine map is
// b mod Spines, so hash(flow) mod Buckets mod Spines equals
// hash(flow) mod Spines. A run that never edits the table is
// byte-identical to one built before route tables existed.
type RouteTable struct {
	rack   int
	spines int
	racks  int
	// ports[s] is the leaf's egress port index toward spine s.
	ports []int
	// override[b] pins bucket b to a spine (-1 = default b mod Spines).
	override []int16
	// upDown[s] counts outages on the leaf→spine s uplink.
	upDown []int32
	// dstDown[q][s] counts outages on the spine s → leaf q downlink;
	// while positive, flows to rack q avoid spine s.
	dstDown [][]int32
	// dirty counts the pinned buckets and the outages in force; at 0
	// the table is clean and Pick is the pure ECMP hash.
	dirty int
}

// NewRouteTable builds the clean table for one leaf. ports maps spine
// index → the leaf's egress port index for that spine; racks is the
// leaf count (the destination-rack dimension of downlink state).
func NewRouteTable(rack int, ports []int, racks int) *RouteTable {
	spines := len(ports)
	t := &RouteTable{
		rack: rack, spines: spines, racks: racks, ports: ports,
		override: make([]int16, spines*RouteBucketsPerSpine),
		upDown:   make([]int32, spines),
		dstDown:  make([][]int32, racks),
	}
	for b := range t.override {
		t.override[b] = -1
	}
	for q := range t.dstDown {
		t.dstDown[q] = make([]int32, spines)
	}
	return t
}

// Spines returns the number of spine uplinks.
func (t *RouteTable) Spines() int { return t.spines }

// Buckets returns the ECMP bucket count (Spines × RouteBucketsPerSpine).
func (t *RouteTable) Buckets() int { return len(t.override) }

// Clean reports whether the table still reproduces the pure ECMP hash.
func (t *RouteTable) Clean() bool { return t.dirty == 0 }

// BucketOf returns the bucket a flow hashes into.
func (t *RouteTable) BucketOf(flow pkt.FlowID) int {
	return ECMPSpine(flow, len(t.override))
}

// BucketSpine returns bucket b's assigned spine before failure
// detours: the TE override if set, else the default b mod Spines.
func (t *RouteTable) BucketSpine(b int) int {
	if s := t.override[b]; s >= 0 {
		return int(s)
	}
	return b % t.spines
}

// SpineUp reports whether the leaf's uplink to spine s is up.
func (t *RouteTable) SpineUp(s int) bool { return t.upDown[s] == 0 }

// Avail reports whether spine s can carry this leaf's traffic to
// dstRack (uplink and far-side downlink both up).
func (t *RouteTable) Avail(dstRack, s int) bool {
	return t.upDown[s] == 0 && t.dstDown[dstRack][s] == 0
}

// PickBucket resolves bucket b for destination rack dstRack: the
// assigned spine if it is usable, else the first usable spine scanning
// upward from it (minimal churn — only buckets whose spine died move,
// and they all detour the same way, so recovery restores them
// exactly). With nothing usable the assigned spine is returned and the
// packet blackholes at the dead link, where the fault layer counts it.
func (t *RouteTable) PickBucket(dstRack, b int) int {
	s := t.BucketSpine(b)
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
	return t.PickBucket(dstRack, t.BucketOf(flow))
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

// bucketsOn counts the buckets assigned to spine s.
func (t *RouteTable) bucketsOn(s int) int {
	moved := 0
	for b := range t.override {
		if t.BucketSpine(b) == s {
			moved++
		}
	}
	return moved
}

// SetUplink marks the leaf→spine s uplink down or up; outages nest (a
// link downed twice needs two ups). Returns the number of buckets
// whose default assignment detours because of this transition.
func (t *RouteTable) SetUplink(s int, down bool) int {
	t.setOutage(&t.upDown[s], down)
	return t.bucketsOn(s)
}

// SetDstDown marks the spine s → rack dstRack downlink down or up;
// outages nest. Returns the number of buckets assigned to s (the
// detouring set for traffic toward dstRack).
func (t *RouteTable) SetDstDown(dstRack, s int, down bool) int {
	t.setOutage(&t.dstDown[dstRack][s], down)
	return t.bucketsOn(s)
}

// SetOverride pins bucket b to a spine (TE move); s = -1 restores the
// default assignment.
func (t *RouteTable) SetOverride(b, s int) {
	if t.override[b] >= 0 {
		t.dirty--
	}
	if s >= 0 {
		t.dirty++
	}
	t.override[b] = int16(s)
}
