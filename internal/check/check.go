// Package check is the simulator's runtime invariant checker: a
// nil-safe layer that verifies the physical and protocol laws every
// paper result rests on — packet conservation, buffer bounds, strict
// dequeue order, ECN marking discipline, arbitration feasibility,
// clock monotonicity and flow-completion lower bounds.
//
// It mirrors the design of internal/obs:
//
//   - Components carry a *Checker unconditionally; every method is a
//     no-op on a nil receiver, so a disabled run pays only a nil test
//     on the hot path and the Checker's presence decides whether
//     anything is verified.
//   - A Checker belongs to one simulation run and is not safe for
//     concurrent use; parallel experiment points each attach their own.
//
// Two modes exist: a counting Checker (New) records violations with
// context and lets the run finish — experiment runs surface the totals
// in the observability snapshot and CLI output — while a strict
// Checker (NewStrict) panics on the first violation with full context,
// which is what tests and fuzz targets want. The PASE_CHECK
// environment variable force-enables checking in every experiment run
// regardless of configuration (see Forced), giving CI a build-wide
// tripwire without touching call sites.
package check

import (
	"fmt"
	"os"
)

// Invariant names, used as violation keys and snapshot counter names.
const (
	InvConservation = "conservation" // enqueued = dequeued + queued (+ push-out drops)
	InvQueueCap     = "queue_cap"    // occupancy never exceeds the configured limit
	InvStrictPrio   = "strict_prio"  // band i never dequeues while band j < i is busy
	InvECNMark      = "ecn_mark"     // CE set only at/above the marking threshold K
	InvArbCapacity  = "arb_capacity" // top-queue allocated rates sum <= link capacity
	InvArbRate      = "arb_rate"     // reference rates are never negative
	InvMonotonic    = "monotonic"    // event timestamps never run backwards
	InvFCTBound     = "fct_bound"    // no flow beats its size/bottleneck lower bound
	InvSketchBound  = "sketch_bound" // sketch quantiles ordered and inside the exact [min, max] envelope
	InvCreditPace   = "credit_pace"  // credits leave a credit-shaped queue no faster than the configured rate
	InvPktLive      = "pkt_live"     // no packet is sent, queued or delivered after its release to a pool
)

// Violation is one recorded invariant breach with its context.
type Violation struct {
	// Invariant is one of the Inv* names.
	Invariant string
	// Time is the simulated timestamp (nanoseconds) of the breach.
	Time int64
	// Where locates the breach: a queue/port label, link id, or
	// subsystem name.
	Where string
	// Flow is the implicated flow id (0 when not flow-specific).
	Flow uint64
	// Detail is a human-readable description with the observed values.
	Detail string
}

func (v Violation) String() string {
	s := fmt.Sprintf("[%s] t=%dns at %s", v.Invariant, v.Time, v.Where)
	if v.Flow != 0 {
		s += fmt.Sprintf(" flow=%d", v.Flow)
	}
	return s + ": " + v.Detail
}

// maxKept bounds the per-run violation log; the total count keeps
// growing past it but details of a violation storm are redundant.
const maxKept = 64

// Checker verifies invariants for one simulation run. The zero value
// of *Checker (nil) is the disabled state: every method no-ops.
type Checker struct {
	strict bool
	clock  func() int64
	total  int64
	perInv map[string]int64
	kept   []Violation
}

// New returns a counting Checker: violations are recorded and the run
// continues. clock supplies the current simulated time in nanoseconds;
// nil is treated as a constant zero clock.
func New(clock func() int64) *Checker {
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	return &Checker{clock: clock, perInv: make(map[string]int64)}
}

// NewStrict returns a fail-fast Checker that panics on the first
// violation with full context — the mode tests and fuzzers use.
func NewStrict(clock func() int64) *Checker {
	c := New(clock)
	c.strict = true
	return c
}

// Forced reports whether the PASE_CHECK environment variable requests
// build-wide invariant checking (any non-empty value). Experiment runs
// consult it so CI can force-enable the checker for a whole test pass.
func Forced() bool { return os.Getenv("PASE_CHECK") != "" }

// Enabled reports whether the checker records anything (false for nil).
func (c *Checker) Enabled() bool { return c != nil }

// Total returns the number of violations observed (0 for nil).
func (c *Checker) Total() int64 {
	if c == nil {
		return 0
	}
	return c.total
}

// Violations returns the retained violation records (at most maxKept;
// nil for a nil or clean Checker).
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	return c.kept
}

// ByInvariant returns per-invariant violation counts (nil for nil).
func (c *Checker) ByInvariant() map[string]int64 {
	if c == nil {
		return nil
	}
	return c.perInv
}

// Reportf records a violation of the named invariant. It is the
// low-level hook behind the typed helpers; call sites with an
// invariant the helpers do not cover use it directly. No-op on nil.
func (c *Checker) Reportf(invariant, where string, flow uint64, format string, args ...any) {
	if c == nil {
		return
	}
	v := Violation{
		Invariant: invariant,
		Time:      c.clock(),
		Where:     where,
		Flow:      flow,
		Detail:    fmt.Sprintf(format, args...),
	}
	if c.strict {
		panic("check: invariant violated: " + v.String())
	}
	c.total++
	c.perInv[invariant]++
	if len(c.kept) < maxKept {
		c.kept = append(c.kept, v)
	}
}

// Summary formats the run's violation totals and retained details for
// CLI/panic output. Empty string when clean or nil.
func (c *Checker) Summary() string {
	if c.Total() == 0 {
		return ""
	}
	s := fmt.Sprintf("%d invariant violation(s):", c.total)
	for inv, n := range c.perInv {
		s += fmt.Sprintf(" %s=%d", inv, n)
	}
	for _, v := range c.kept {
		s += "\n  " + v.String()
	}
	if int64(len(c.kept)) < c.total {
		s += fmt.Sprintf("\n  ... and %d more", c.total-int64(len(c.kept)))
	}
	return s
}

// Conservation verifies a queue's end-state packet accounting:
// every accepted packet is either dequeued, still queued, or was
// dropped after acceptance (push-out / priority eviction), so
//
//	deq + qlen <= enq <= deq + qlen + dropped
//
// (dropped counts both arrival drops and post-acceptance evictions,
// hence the inequality). Call it when the queue goes quiet.
func (c *Checker) Conservation(where string, enq, deq, dropped int64, qlen int) {
	if c == nil {
		return
	}
	if deq+int64(qlen) > enq || enq > deq+int64(qlen)+dropped {
		c.Reportf(InvConservation, where, 0,
			"enqueued=%d dequeued=%d dropped=%d queued=%d", enq, deq, dropped, qlen)
	}
}

// QueueCap verifies post-enqueue occupancy against the configured
// limit.
func (c *Checker) QueueCap(where string, occ, limit int) {
	if c == nil {
		return
	}
	if occ > limit {
		c.Reportf(InvQueueCap, where, 0, "occupancy %d exceeds limit %d", occ, limit)
	}
}

// StrictPrio verifies a strict-priority dequeue decision: band was
// selected while busyHigher packets sat in a strictly higher-priority
// band.
func (c *Checker) StrictPrio(where string, band, busyHigher int) {
	if c == nil {
		return
	}
	if busyHigher > 0 {
		c.Reportf(InvStrictPrio, where, 0,
			"dequeued band %d while %d packet(s) wait in higher bands", band, busyHigher)
	}
}

// ECNMark verifies a CE mark decision: occ is the (pre-enqueue) queue
// occupancy the marking rule saw, k the configured threshold.
func (c *Checker) ECNMark(where string, flow uint64, occ, k int) {
	if c == nil {
		return
	}
	if occ < k {
		c.Reportf(InvECNMark, where, flow, "CE set at occupancy %d below threshold K=%d", occ, k)
	}
}

// ArbAllocation verifies an arbitrator's allocation pass: the
// reference rates handed to top-queue flows must sum to at most the
// link capacity (the feasibility condition of Algorithm 1).
func (c *Checker) ArbAllocation(where string, topSum, capacity int64) {
	if c == nil {
		return
	}
	if topSum > capacity {
		c.Reportf(InvArbCapacity, where, 0,
			"top-queue rate sum %d exceeds capacity %d", topSum, capacity)
	}
}

// RefRate verifies one flow's arbitrated reference rate is
// non-negative.
func (c *Checker) RefRate(where string, flow uint64, rate int64) {
	if c == nil {
		return
	}
	if rate < 0 {
		c.Reportf(InvArbRate, where, flow, "negative reference rate %d", rate)
	}
}

// Monotonic verifies the event clock never runs backwards: next is
// the timestamp about to be dispatched, prev the current clock.
func (c *Checker) Monotonic(where string, prev, next int64) {
	if c == nil {
		return
	}
	if next < prev {
		c.Reportf(InvMonotonic, where, 0, "event at t=%d dispatched after clock reached %d", next, prev)
	}
}

// SketchBounds verifies a streaming run's quantile-sketch summary:
// every estimate must fall inside the exactly tracked [min, max]
// sample envelope and the quantile function must be monotone
// (p50 <= p99). A breach means the sketch's bucketing or rank walk is
// broken, not the simulation.
func (c *Checker) SketchBounds(where string, p50, p99, min, max int64) {
	if c == nil {
		return
	}
	if p50 < min || p50 > max || p99 < min || p99 > max {
		c.Reportf(InvSketchBound, where, 0,
			"quantiles p50=%d p99=%d outside observed [%d, %d]", p50, p99, min, max)
	}
	if p99 < p50 {
		c.Reportf(InvSketchBound, where, 0, "p99 %d below p50 %d", p99, p50)
	}
}

// CreditPace verifies a credit-shaping queue's release decision: now
// is the dequeue timestamp, eligible the earliest instant the
// configured pacing rate allows the next credit out. A breach means
// the shaper let credits through faster than its rate limit — the
// bound ExpressPass's data-queue guarantee rests on.
func (c *Checker) CreditPace(where string, now, eligible int64) {
	if c == nil {
		return
	}
	if now < eligible {
		c.Reportf(InvCreditPace, where, 0,
			"credit released at t=%d before pacing eligibility t=%d", now, eligible)
	}
}

// PktLive verifies packet ownership at a point a packet is handled
// (port send, queue enqueue, host receive): released is the packet's
// own record of having been returned to a pool. A breach means some
// component kept a packet past the point it died and the free list may
// already have reissued it.
func (c *Checker) PktLive(where string, flow uint64, released bool) {
	if c == nil {
		return
	}
	if released {
		c.Reportf(InvPktLive, where, flow, "packet used after its release to the pool")
	}
}

// FCTBound verifies a completed flow against its physical lower bound:
// size bytes cannot finish faster than their serialization time at the
// path's bottleneck capacity.
func (c *Checker) FCTBound(where string, flow uint64, fct, bound int64) {
	if c == nil {
		return
	}
	if fct < bound {
		c.Reportf(InvFCTBound, where, flow,
			"FCT %dns beats the size/bottleneck lower bound %dns", fct, bound)
	}
}
