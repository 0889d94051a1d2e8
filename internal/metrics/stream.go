package metrics

import "pase/internal/sim"

var (
	_ Sink = (*Collector)(nil)
	_ Sink = (*StreamCollector)(nil)
)

// StreamCollector is the bounded-memory Sink for large runs: it keeps
// the same exact tally as the stored Collector plus a QuantileSketch
// for P50/P99 and downsampled CDFs, and never retains individual
// FlowRecords. Memory is O(1) in the number of flows and Add is
// allocation-free, so a 10^6-flow run costs the same heap as a
// 10^3-flow one.
//
// Relative to the stored Collector, Summarize differs only in P50/P99
// (within the sketch's ε); every other field comes from the same tally.
type StreamCollector struct {
	tally
	sketch *QuantileSketch
}

// NewStreamCollector returns an empty streaming collector whose
// quantile estimates are within eps relative error (eps <= 0 selects
// DefaultSketchEps).
func NewStreamCollector(eps float64) *StreamCollector {
	return &StreamCollector{sketch: NewQuantileSketch(eps)}
}

// Sketch exposes the underlying quantile sketch (for observability
// scraping and invariant checks).
func (c *StreamCollector) Sketch() *QuantileSketch { return c.sketch }

// Completed returns how many completed flows were recorded.
func (c *StreamCollector) Completed() int { return c.completed }

// Add records one finished flow. It implements Sink and is
// allocation-free.
func (c *StreamCollector) Add(r FlowRecord) {
	if c.add(r) {
		c.sketch.Add(int64(r.FCT()))
	}
}

// Summarize implements Sink: the tally's exact fields, with P50 and
// P99 from the sketch.
func (c *StreamCollector) Summarize() Summary {
	s := c.summary()
	s.P50 = sim.Duration(c.sketch.Quantile(50))
	s.P99 = sim.Duration(c.sketch.Quantile(99))
	return s
}

// CDF implements Sink: the stored Collector's rank grid, with values
// read from the sketch (so each step is within ε of the exact one).
func (c *StreamCollector) CDF(maxPoints int) []CDFPoint {
	return cdf(c.completed, maxPoints, func(rank int64) sim.Duration {
		return sim.Duration(c.sketch.valueAtRank(rank))
	})
}
