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
// The table is versioned copy-on-write: every mutation clones the
// current routeState, applies the edit and swaps the pointer, so a
// reader always sees one consistent epoch and Version identifies it.
// All reads and writes for one leaf happen on that leaf's shard
// goroutine (cross-shard updates arrive via the conservative-lookahead
// handoff), so no atomics are needed.
//
// Determinism contract: with no overrides and no down links the table
// is "clean" and Pick reproduces ECMPSpine exactly — bucket count is a
// multiple of the spine count and the default bucket→spine map is
// b mod Spines, so hash(flow) mod Buckets mod Spines equals
// hash(flow) mod Spines. A run that never mutates the table is
// byte-identical to one built before route tables existed.
type RouteTable struct {
	rack   int
	spines int
	racks  int
	// ports[s] is the leaf's egress port index toward spine s.
	ports []int
	state *routeState
}

// routeState is one immutable epoch of a RouteTable.
type routeState struct {
	version uint64
	// clean short-circuits Pick to the pure ECMP hash.
	clean bool
	// override[b] pins bucket b to a spine (-1 = default b mod Spines).
	override []int16
	// upDown[s] counts outages on the leaf→spine s uplink.
	upDown []int32
	// dstDown[q][s] counts outages on the spine s → leaf q downlink;
	// while positive, flows to rack q avoid spine s.
	dstDown [][]int32
}

// NewRouteTable builds the clean table for one leaf. ports maps spine
// index → the leaf's egress port index for that spine; racks is the
// leaf count (the destination-rack dimension of downlink state).
func NewRouteTable(rack int, ports []int, racks int) *RouteTable {
	spines := len(ports)
	st := &routeState{
		clean:    true,
		override: make([]int16, spines*RouteBucketsPerSpine),
		upDown:   make([]int32, spines),
		dstDown:  make([][]int32, racks),
	}
	for b := range st.override {
		st.override[b] = -1
	}
	for q := range st.dstDown {
		st.dstDown[q] = make([]int32, spines)
	}
	return &RouteTable{rack: rack, spines: spines, racks: racks, ports: ports, state: st}
}

// Spines returns the number of spine uplinks.
func (t *RouteTable) Spines() int { return t.spines }

// Buckets returns the ECMP bucket count (Spines × RouteBucketsPerSpine).
func (t *RouteTable) Buckets() int { return len(t.state.override) }

// Version identifies the current route epoch (0 = as built).
func (t *RouteTable) Version() uint64 { return t.state.version }

// Clean reports whether the table still reproduces the pure ECMP hash.
func (t *RouteTable) Clean() bool { return t.state.clean }

// BucketOf returns the bucket a flow hashes into.
func (t *RouteTable) BucketOf(flow pkt.FlowID) int {
	return ECMPSpine(flow, len(t.state.override))
}

// BucketSpine returns bucket b's assigned spine before failure
// detours: the TE override if set, else the default b mod Spines.
func (t *RouteTable) BucketSpine(b int) int {
	if s := t.state.override[b]; s >= 0 {
		return int(s)
	}
	return b % t.spines
}

// SpineUp reports whether the leaf's uplink to spine s is up.
func (t *RouteTable) SpineUp(s int) bool { return t.state.upDown[s] == 0 }

// avail reports whether spine s can carry traffic to dstRack: the
// uplink and the spine's downlink to that rack are both up.
func (st *routeState) avail(dstRack, s int) bool {
	return st.upDown[s] == 0 && st.dstDown[dstRack][s] == 0
}

// Avail reports whether spine s can carry this leaf's traffic to
// dstRack under the current epoch (uplink and far-side downlink both
// up). The route-validity checker scans it after every table edit.
func (t *RouteTable) Avail(dstRack, s int) bool {
	return t.state.avail(dstRack, s)
}

// PickBucket resolves bucket b for destination rack dstRack: the
// assigned spine if it is usable, else the first usable spine scanning
// upward from it (minimal churn — only buckets whose spine died move,
// and they all detour the same way, so recovery restores them
// exactly). With nothing usable the assigned spine is returned and the
// packet blackholes at the dead link, where the fault layer counts it.
func (t *RouteTable) PickBucket(dstRack, b int) int {
	st := t.state
	s := t.BucketSpine(b)
	if st.avail(dstRack, s) {
		return s
	}
	for k := 1; k < t.spines; k++ {
		if c := (s + k) % t.spines; st.avail(dstRack, c) {
			return c
		}
	}
	return s
}

// Pick returns the spine index carrying flow → dstRack under the
// current epoch. The clean fast path is the pure ECMP hash.
func (t *RouteTable) Pick(dstRack int, flow pkt.FlowID) int {
	st := t.state
	if st.clean {
		return ECMPSpine(flow, t.spines)
	}
	return t.PickBucket(dstRack, t.BucketOf(flow))
}

// PickPort returns the leaf's egress port index for flow → dstRack.
func (t *RouteTable) PickPort(dstRack int, flow pkt.FlowID) int {
	return t.ports[t.Pick(dstRack, flow)]
}

// mutate clones the state, applies fn and publishes the new epoch.
func (t *RouteTable) mutate(fn func(st *routeState)) {
	old := t.state
	st := &routeState{
		version:  old.version + 1,
		override: append([]int16(nil), old.override...),
		upDown:   append([]int32(nil), old.upDown...),
		dstDown:  make([][]int32, len(old.dstDown)),
	}
	for q := range old.dstDown {
		st.dstDown[q] = append([]int32(nil), old.dstDown[q]...)
	}
	fn(st)
	st.clean = true
	for _, o := range st.override {
		if o >= 0 {
			st.clean = false
			break
		}
	}
	for _, d := range st.upDown {
		if d > 0 {
			st.clean = false
			break
		}
	}
	for q := range st.dstDown {
		for _, d := range st.dstDown[q] {
			if d > 0 {
				st.clean = false
				break
			}
		}
	}
	t.state = st
}

// SetUplink marks the leaf→spine s uplink down or up; outages nest (a
// link downed twice needs two ups). Returns the number of buckets
// whose default assignment detours because of this transition.
func (t *RouteTable) SetUplink(s int, down bool) int {
	t.mutate(func(st *routeState) {
		if down {
			st.upDown[s]++
		} else if st.upDown[s] > 0 {
			st.upDown[s]--
		}
	})
	moved := 0
	for b := 0; b < t.Buckets(); b++ {
		if t.BucketSpine(b) == s {
			moved++
		}
	}
	return moved
}

// SetDstDown marks the spine s → rack dstRack downlink down or up;
// outages nest. Returns the number of buckets assigned to s (the
// detouring set for traffic toward dstRack).
func (t *RouteTable) SetDstDown(dstRack, s int, down bool) int {
	t.mutate(func(st *routeState) {
		if down {
			st.dstDown[dstRack][s]++
		} else if st.dstDown[dstRack][s] > 0 {
			st.dstDown[dstRack][s]--
		}
	})
	moved := 0
	for b := 0; b < t.Buckets(); b++ {
		if t.BucketSpine(b) == s {
			moved++
		}
	}
	return moved
}

// SetOverride pins bucket b to a spine (TE move); s = -1 restores the
// default assignment.
func (t *RouteTable) SetOverride(b, s int) {
	t.mutate(func(st *routeState) {
		st.override[b] = int16(s)
	})
}
