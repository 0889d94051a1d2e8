// Package workload synthesizes the traffic the paper evaluates on:
// Poisson flow arrivals with uniform flow sizes, the three traffic
// patterns used in the evaluation (intra-rack all-to-all, left-right
// inter-rack, worker-aggregator), optional per-flow deadlines, and
// long-lived background flows.
package workload

import (
	"fmt"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// FlowSpec describes one flow to run: the demand side of the
// simulation, independent of any transport protocol.
type FlowSpec struct {
	ID    pkt.FlowID
	Src   pkt.NodeID
	Dst   pkt.NodeID
	Size  int64    // payload bytes
	Start sim.Time // arrival time
	// Deadline is the absolute completion deadline; zero means none.
	Deadline sim.Time
	// Background marks a long-lived flow that never finishes within
	// the run; it is excluded from FCT statistics.
	Background bool
	// Task groups flows that belong to one application-level unit of
	// work (e.g. the responses of one query). 0 means untasked. Task
	// ids increase in task arrival order, so they double as a
	// FIFO-across-tasks scheduling criterion (Baraat-style task-aware
	// scheduling, which the paper's Algorithm 1 supports by swapping
	// FlowSize for a task id).
	Task uint64
}

func (f FlowSpec) String() string {
	return fmt.Sprintf("flow %d: %d->%d %dB @%v", f.ID, f.Src, f.Dst, f.Size, f.Start)
}

// SizeDist draws flow sizes.
type SizeDist interface {
	Sample(r *sim.Rand) int64
	// Mean returns the analytic expectation, used to convert offered
	// load into a Poisson arrival rate.
	Mean() float64
	String() string
}

// UniformSize draws uniformly from [Min, Max] bytes — the paper's
// query/short-message workload is U[2 KB, 198 KB] and the deadline
// workload U[100 KB, 500 KB].
type UniformSize struct {
	Min, Max int64
}

// Sample implements SizeDist.
func (u UniformSize) Sample(r *sim.Rand) int64 { return r.UniformInt(u.Min, u.Max) }

// Mean implements SizeDist.
func (u UniformSize) Mean() float64 { return float64(u.Min+u.Max) / 2 }

func (u UniformSize) String() string { return fmt.Sprintf("U[%d,%d]B", u.Min, u.Max) }

// Pattern picks (src, dst) pairs for arriving flows.
type Pattern interface {
	Pair(r *sim.Rand) (src, dst pkt.NodeID)
	String() string
}

// AllToAll picks a uniform random ordered pair of distinct hosts —
// the paper's intra-rack all-to-all scenario (e.g. web-search workers
// and aggregators within one rack, aggregators picked round-robin).
type AllToAll struct {
	Hosts []pkt.NodeID
}

// Pair implements Pattern.
func (a AllToAll) Pair(r *sim.Rand) (pkt.NodeID, pkt.NodeID) {
	si := r.Intn(len(a.Hosts))
	di := r.Intn(len(a.Hosts) - 1)
	if di >= si {
		di++
	}
	return a.Hosts[si], a.Hosts[di]
}

func (a AllToAll) String() string { return fmt.Sprintf("all-to-all(%d hosts)", len(a.Hosts)) }

// LeftRight sends from a uniformly chosen left-set host to a uniformly
// chosen right-set host — the paper's inter-rack scenario where
// front-ends and back-ends live in different subtrees and the
// aggregation-core link is the bottleneck.
type LeftRight struct {
	Left, Right []pkt.NodeID
}

// Pair implements Pattern.
func (lr LeftRight) Pair(r *sim.Rand) (pkt.NodeID, pkt.NodeID) {
	return lr.Left[r.Intn(len(lr.Left))], lr.Right[r.Intn(len(lr.Right))]
}

func (lr LeftRight) String() string {
	return fmt.Sprintf("left-right(%d->%d hosts)", len(lr.Left), len(lr.Right))
}

// Spec is a complete workload description.
type Spec struct {
	Pattern Pattern
	Sizes   SizeDist

	// Load is the offered load in (0, 1], relative to Reference.
	Load float64
	// Reference is the capacity the load is defined against: the
	// bottleneck the experiment saturates (e.g. the 10 Gbps agg-core
	// link for left-right, sum of receiver edge links for all-to-all).
	Reference netem.BitRate

	// NumFlows is how many short flows to generate.
	NumFlows int

	// DeadlineMin/Max, when positive, draw a uniform relative
	// deadline for every flow (the paper uses 5–25 ms).
	DeadlineMin, DeadlineMax sim.Duration

	// Fanin, when > 1, makes every arrival a query event in the
	// worker–aggregator style: Fanin flows from distinct random
	// workers start simultaneously toward one aggregator, aggregators
	// taken round-robin for load balancing (§2.1 and §4.2.2 of the
	// paper). The Pattern must be AllToAll. NumFlows still counts
	// individual flows.
	Fanin int

	// Background flows: long-lived 1 GiB transfers started at time
	// zero between pattern-chosen pairs (the paper runs two).
	BackgroundFlows int
}

// backgroundSize is the size of each background flow, large enough to
// outlive any run.
const backgroundSize = 1 << 30

// Validate reports the first precondition s breaks: a pattern with
// two hosts to pair (AllToAll) or a host on each side (LeftRight),
// uniform sizes of at least one byte with Min ≤ Max, a Load in (0, 1],
// a positive Reference, non-negative flow counts, ordered deadline
// bounds, and Fanin only over AllToAll. Generate and Stream panic on a
// Spec that fails it: an invalid Spec built inside the program is a
// bug, so input from outside is checked here first.
func (s Spec) Validate() error {
	switch p := s.Pattern.(type) {
	case AllToAll:
		if len(p.Hosts) < 2 {
			return fmt.Errorf("workload: AllToAll needs at least two hosts, has %d", len(p.Hosts))
		}
	case LeftRight:
		if len(p.Left) == 0 || len(p.Right) == 0 {
			return fmt.Errorf("workload: LeftRight needs a host on each side, has %d and %d", len(p.Left), len(p.Right))
		}
	case nil:
		return fmt.Errorf("workload: Spec has no Pattern")
	}
	if _, ok := s.Pattern.(AllToAll); s.Fanin > 1 && !ok {
		return fmt.Errorf("workload: Fanin %d requires the AllToAll pattern, not %v", s.Fanin, s.Pattern)
	}
	if s.Sizes == nil {
		return fmt.Errorf("workload: Spec has no Sizes")
	}
	if u, ok := s.Sizes.(UniformSize); ok && (u.Min < 1 || u.Max < u.Min) {
		return fmt.Errorf("workload: sizes %v need 1 <= Min <= Max", u)
	}
	switch {
	case !(s.Load > 0 && s.Load <= 1):
		return fmt.Errorf("workload: Load %v is outside (0, 1]", s.Load)
	case s.Reference <= 0:
		return fmt.Errorf("workload: Reference %v is not positive", s.Reference)
	case s.NumFlows < 0 || s.BackgroundFlows < 0:
		return fmt.Errorf("workload: NumFlows %d and BackgroundFlows %d must not be negative", s.NumFlows, s.BackgroundFlows)
	case s.DeadlineMax > 0 && (s.DeadlineMin < 0 || s.DeadlineMin > s.DeadlineMax):
		return fmt.Errorf("workload: deadlines [%v, %v] need 0 <= DeadlineMin <= DeadlineMax", s.DeadlineMin, s.DeadlineMax)
	}
	return nil
}

// ArrivalRate returns the Poisson arrival rate (flows/sec) implied by
// the offered load.
func (s Spec) ArrivalRate() float64 {
	meanBits := s.Sizes.Mean() * 8
	return s.Load * float64(s.Reference) / meanBits
}

// Generate materializes the sequence Stream(r, firstID) yields:
// background flows at t=0 followed by NumFlows Poisson arrivals, with
// IDs from firstID up.
func (s Spec) Generate(r *sim.Rand, firstID pkt.FlowID) []FlowSpec {
	st := s.Stream(r, firstID)
	out := make([]FlowSpec, 0, s.BackgroundFlows+s.NumFlows)
	for f, ok := st.Next(); ok; f, ok = st.Next() {
		out = append(out, f)
	}
	return out
}

// Stream is an iterator over a Spec's flows: background flows first,
// then Poisson arrivals one at a time. A Stream holds only the current
// fan-in batch — O(Fanin) memory regardless of NumFlows — which is
// what lets million-flow runs schedule arrivals lazily instead of
// building the whole []FlowSpec up front.
type Stream struct {
	spec    Spec
	r       *sim.Rand
	id      pkt.FlowID
	bgLeft  int
	meanGap sim.Duration
	t       sim.Time
	emitted int // foreground flows yielded so far
	aggNext int
	batch   []FlowSpec // pending flows of the current fan-in event
	batchi  int
}

// Stream returns an iterator yielding the workload one FlowSpec at a
// time, with IDs from firstID up.
func (s Spec) Stream(r *sim.Rand, firstID pkt.FlowID) *Stream {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	st := &Stream{spec: s, r: r, id: firstID, bgLeft: s.BackgroundFlows}
	st.meanGap = sim.Duration(float64(sim.Second) / s.ArrivalRate())
	if s.Fanin > 1 {
		st.meanGap *= sim.Duration(s.Fanin)
	}
	return st
}

// Next yields the next flow, or ok=false when the workload is
// exhausted.
func (st *Stream) Next() (FlowSpec, bool) {
	s := st.spec
	if st.bgLeft > 0 {
		st.bgLeft--
		src, dst := s.Pattern.Pair(st.r)
		f := FlowSpec{ID: st.id, Src: src, Dst: dst, Size: backgroundSize, Start: 0, Background: true}
		st.id++
		return f, true
	}
	if st.batchi < len(st.batch) {
		f := st.batch[st.batchi]
		st.batchi++
		return f, true
	}
	for st.emitted < s.NumFlows {
		st.t = st.t.Add(st.r.ExpDuration(st.meanGap))
		if s.Fanin <= 1 {
			src, dst := s.Pattern.Pair(st.r)
			f := s.flow(st.r, st.id, src, dst, st.t)
			st.id++
			st.emitted++
			return f, true
		}
		a2a := s.Pattern.(AllToAll)
		dst := a2a.Hosts[st.aggNext%len(a2a.Hosts)]
		st.aggNext++
		task := uint64(st.aggNext)
		workers := pickWorkers(st.r, a2a.Hosts, dst, s.Fanin)
		st.batch = st.batch[:0]
		for _, src := range workers {
			if st.emitted >= s.NumFlows {
				break
			}
			f := s.flow(st.r, st.id, src, dst, st.t)
			f.Task = task
			st.batch = append(st.batch, f)
			st.id++
			st.emitted++
		}
		// An all-aggregator query draw can yield zero workers only when
		// the pool is empty; the loop then draws the next arrival.
		if len(st.batch) > 0 {
			st.batchi = 1
			return st.batch[0], true
		}
	}
	return FlowSpec{}, false
}

func (s Spec) flow(r *sim.Rand, id pkt.FlowID, src, dst pkt.NodeID, t sim.Time) FlowSpec {
	f := FlowSpec{ID: id, Src: src, Dst: dst, Size: s.Sizes.Sample(r), Start: t}
	if s.DeadlineMax > 0 {
		d := sim.Duration(r.UniformInt(int64(s.DeadlineMin), int64(s.DeadlineMax)))
		f.Deadline = t.Add(d)
	}
	return f
}

// pickWorkers draws k distinct hosts other than dst.
func pickWorkers(r *sim.Rand, hosts []pkt.NodeID, dst pkt.NodeID, k int) []pkt.NodeID {
	pool := make([]pkt.NodeID, 0, len(hosts)-1)
	for _, h := range hosts {
		if h != dst {
			pool = append(pool, h)
		}
	}
	if k > len(pool) {
		k = len(pool)
	}
	perm := r.Perm(len(pool))
	out := make([]pkt.NodeID, 0, k)
	for _, idx := range perm[:k] {
		out = append(out, pool[idx])
	}
	return out
}

// HostRange returns the NodeIDs [lo, hi).
func HostRange(lo, hi int) []pkt.NodeID {
	out := make([]pkt.NodeID, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, pkt.NodeID(i))
	}
	return out
}
