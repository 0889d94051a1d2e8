// Package metrics collects and summarizes the per-flow quantities the
// paper's evaluation reports: flow completion times (average, tail
// percentiles, CDFs), application throughput (fraction of deadline
// flows finishing on time) and task completion times. Loss rates and
// control-plane message counts are read off the network and the
// protocols by the experiment runner.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"pase/internal/sim"
)

// FlowRecord is the outcome of one finished (or abandoned) flow.
type FlowRecord struct {
	ID       uint64
	Task     uint64 // application-level task (0 = untasked)
	Size     int64
	Start    sim.Time
	Finish   sim.Time
	Deadline sim.Time // zero when the flow has no deadline
	Done     bool     // false if the flow never completed before the run ended
	Aborted  bool     // the transport killed the flow (progress deadline, early termination)
	Retx     int      // retransmitted segments
	Timeouts int
}

// FCT returns the flow completion time.
func (r FlowRecord) FCT() sim.Duration { return r.Finish.Sub(r.Start) }

// MetDeadline reports whether a deadline flow finished on time.
func (r FlowRecord) MetDeadline() bool {
	return r.Done && r.Deadline > 0 && r.Finish <= r.Deadline
}

// Sink is where finished-flow records land: the stored Collector
// (every record retained, exact statistics) or the bounded-memory
// StreamCollector (online statistics over a quantile sketch). The
// transport layer records through this interface so large runs can
// swap collectors without touching the data path.
type Sink interface {
	// Add records one finished (or abandoned) flow.
	Add(r FlowRecord)
	// Summarize condenses everything recorded so far.
	Summarize() Summary
	// CDF returns the empirical FCT distribution of completed flows,
	// downsampled to at most maxPoints evenly spaced quantiles.
	CDF(maxPoints int) []CDFPoint
}

// Collector accumulates flow records for one simulation run.
type Collector struct {
	records []FlowRecord
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Add records one finished flow.
func (c *Collector) Add(r FlowRecord) { c.records = append(c.records, r) }

// Records returns everything collected so far.
func (c *Collector) Records() []FlowRecord { return c.records }

// Summary condenses a run into the paper's headline numbers.
type Summary struct {
	Flows     int
	Completed int
	// Aborted counts flows the transport killed (progress-deadline
	// aborts, PDQ early termination). They are excluded from AFCT and
	// the percentiles, which run over completed flows only.
	Aborted int

	AFCT   sim.Duration // average FCT over completed flows
	P50    sim.Duration
	P99    sim.Duration
	MaxFCT sim.Duration

	// AppThroughput is the fraction of deadline-bearing flows that met
	// their deadline (deadline flows only; 0 when there are none).
	AppThroughput float64
	DeadlineFlows int

	Retransmits int64
	Timeouts    int64
}

// tally is what the stored and streamed sinks count alike: exact
// sums from which it builds every Summary field but P50 and P99.
type tally struct {
	flows     int
	completed int
	aborted   int
	fctSum    int64
	maxFCT    sim.Duration

	deadlineFlows int
	deadlineMet   int

	retx     int64
	timeouts int64
}

// add counts one record and reports whether the flow completed.
func (t *tally) add(r FlowRecord) bool {
	t.flows++
	t.retx += int64(r.Retx)
	t.timeouts += int64(r.Timeouts)
	if r.Deadline > 0 {
		t.deadlineFlows++
		if r.MetDeadline() {
			t.deadlineMet++
		}
	}
	if r.Aborted {
		t.aborted++
	}
	if !r.Done {
		return false
	}
	t.completed++
	fct := r.FCT()
	t.fctSum += int64(fct)
	t.maxFCT = max(t.maxFCT, fct)
	return true
}

// summary returns every Summary field but P50 and P99.
func (t *tally) summary() Summary {
	s := Summary{
		Flows:         t.flows,
		Completed:     t.completed,
		Aborted:       t.aborted,
		DeadlineFlows: t.deadlineFlows,
		Retransmits:   t.retx,
		Timeouts:      t.timeouts,
		MaxFCT:        t.maxFCT,
	}
	if t.deadlineFlows > 0 {
		s.AppThroughput = float64(t.deadlineMet) / float64(t.deadlineFlows)
	}
	if t.completed > 0 {
		s.AFCT = sim.Duration(t.fctSum / int64(t.completed))
	}
	return s
}

// Summarize computes a Summary over completed flows.
func (c *Collector) Summarize() Summary {
	var t tally
	for _, r := range c.records {
		t.add(r)
	}
	s := t.summary()
	fcts := c.sortedFCTs()
	s.P50, s.P99 = Percentile(fcts, 50), Percentile(fcts, 99)
	return s
}

// sortedFCTs returns the completed flows' FCTs in ascending order.
func (c *Collector) sortedFCTs() []sim.Duration {
	var fcts []sim.Duration
	for _, r := range c.records {
		if r.Done {
			fcts = append(fcts, r.FCT())
		}
	}
	sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
	return fcts
}

func (s Summary) String() string {
	return fmt.Sprintf("flows=%d done=%d aborted=%d afct=%.3fms p99=%.3fms appTput=%.3f retx=%d timeouts=%d",
		s.Flows, s.Completed, s.Aborted, s.AFCT.Millis(), s.P99.Millis(), s.AppThroughput, s.Retransmits, s.Timeouts)
}

// Percentile returns the p-th percentile (0 < p <= 100) of a sorted
// slice using the nearest-rank method. An empty slice has no
// percentiles; it yields the zero duration, mirroring how Summarize
// reports zero AFCT/P50/P99 for a run with no completed flows.
func Percentile(sorted []sim.Duration, p float64) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[rank-1]
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Value    sim.Duration
	Fraction float64 // fraction of samples <= Value
}

// CDF computes the empirical CDF of the completed flows' FCTs,
// downsampled to at most maxPoints evenly spaced quantiles.
func (c *Collector) CDF(maxPoints int) []CDFPoint {
	fcts := c.sortedFCTs()
	return cdf(len(fcts), maxPoints, func(rank int64) sim.Duration { return fcts[rank-1] })
}

// cdf reads at most maxPoints steps of an n-sample CDF off the evenly
// spaced rank grid rank = i·n/maxPoints, i = 1..maxPoints, each with
// Fraction rank/n; at returns the value of the sample at a 1-based
// rank. Both sinks' CDFs use it, so their grids agree exactly.
func cdf(n, maxPoints int, at func(rank int64) sim.Duration) []CDFPoint {
	if n == 0 {
		return nil
	}
	if maxPoints <= 0 || maxPoints > n {
		maxPoints = n
	}
	out := make([]CDFPoint, 0, maxPoints)
	for i := 1; i <= maxPoints; i++ {
		rank := int64(i) * int64(n) / int64(maxPoints)
		out = append(out, CDFPoint{Value: at(rank), Fraction: float64(rank) / float64(n)})
	}
	return out
}

// TaskRecord summarizes one application-level task (a group of flows
// sharing FlowRecord.Task).
type TaskRecord struct {
	Task  uint64
	Flows int
	Start sim.Time // earliest flow start
	End   sim.Time // latest flow finish
	Done  bool     // every flow completed
}

// TCT returns the task completion time.
func (t TaskRecord) TCT() sim.Duration { return t.End.Sub(t.Start) }

// Tasks groups flow records by task id (ignoring untasked flows) and
// returns the per-task summaries sorted by task id — the metric
// task-aware scheduling optimizes.
func Tasks(records []FlowRecord) []TaskRecord {
	byTask := make(map[uint64]*TaskRecord)
	for _, r := range records {
		if r.Task == 0 {
			continue
		}
		t, ok := byTask[r.Task]
		if !ok {
			t = &TaskRecord{Task: r.Task, Start: r.Start, End: r.Finish, Done: true}
			byTask[r.Task] = t
		}
		t.Flows++
		if r.Start < t.Start {
			t.Start = r.Start
		}
		if r.Finish > t.End {
			t.End = r.Finish
		}
		if !r.Done {
			t.Done = false
		}
	}
	out := make([]TaskRecord, 0, len(byTask))
	for _, t := range byTask {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}

// MeanTCT returns the mean completion time over completed tasks.
func MeanTCT(tasks []TaskRecord) sim.Duration {
	var sum int64
	var n int64
	for _, t := range tasks {
		if t.Done {
			sum += int64(t.TCT())
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sim.Duration(sum / n)
}

// TaskOrderInversions counts pairs of completed tasks that finished in
// the opposite order to their arrival — 0 means perfect FIFO service
// across tasks.
func TaskOrderInversions(tasks []TaskRecord) int {
	inv := 0
	for i := 0; i < len(tasks); i++ {
		if !tasks[i].Done {
			continue
		}
		for j := i + 1; j < len(tasks); j++ {
			if tasks[j].Done && tasks[j].End < tasks[i].End {
				inv++
			}
		}
	}
	return inv
}
