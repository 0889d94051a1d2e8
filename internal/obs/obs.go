// Package obs is the simulator's run-wide observability layer: a
// zero-allocation set of counters, high-watermark gauges and
// fixed-bucket histograms collected in a per-run Registry.
//
// Design constraints, in order:
//
//   - The hot path (one increment) must be branch-cheap and must not
//     allocate: instruments are plain structs mutated through a held
//     pointer, looked up by name once at setup time.
//   - A disabled run must cost nothing: every instrument method is a
//     no-op on a nil receiver, and a nil *Registry hands out nil
//     instruments, so components instrument themselves unconditionally
//     and the Registry's presence decides whether anything is recorded.
//   - Snapshots must merge deterministically: every recorded quantity
//     is an int64 combined by addition (counters, histogram buckets)
//     or max/min (gauges, histogram extrema), so a merged snapshot is
//     byte-identical regardless of the merge order the worker pool
//     happened to produce.
//
// A Registry belongs to exactly one simulation run and, like the
// engine it observes, is not safe for concurrent use. Parallel
// experiment points each build their own Registry and the results are
// merged as Snapshots afterwards.
package obs

import "math/bits"

// Counter is a monotonically increasing event count.
type Counter struct {
	v int64
}

// Inc adds one. No-op on a nil Counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n. No-op on a nil Counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Gauge tracks the high-watermark of an instantaneous level. Only the
// maximum is kept: unlike a last-value gauge it merges
// deterministically (max is commutative) and it is what capacity
// questions — deepest calendar, fullest queue — actually need.
type Gauge struct {
	max  int64
	seen bool
}

// Update records the current level. No-op on a nil Gauge.
func (g *Gauge) Update(v int64) {
	if g == nil {
		return
	}
	if !g.seen || v > g.max {
		g.max = v
		g.seen = true
	}
}

// histBuckets is the fixed bucket count of every Histogram: bucket 0
// holds values <= 0 and bucket i holds values in [2^(i-1), 2^i), which
// spans the full int64 range (nanosecond latencies through byte
// counts) without configuration, allocation, or float math.
const histBuckets = 64

// Histogram is a fixed-bucket log2 histogram with count/sum/min/max.
// Observing is one shift-class bucket index plus five integer updates;
// no allocation ever.
type Histogram struct {
	count, sum int64
	min, max   int64
	buckets    [histBuckets]int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // in [1, 64); bucket 63 holds >= 2^62
}

// Observe records one value. No-op on a nil Histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Registry is the per-run instrument namespace. Instruments are
// created on first lookup and shared on every later lookup of the same
// name, so distinct components feeding one logical stream (e.g. every
// priority queue in the fabric) converge on one instrument. Lookup
// allocates; it belongs in setup code, never in the event loop.
//
// The zero *Registry (nil) is the disabled state: every lookup returns
// nil and every instrument method on nil is a no-op.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty, enabled Registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// Returns nil on a nil Registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil Registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil Registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}
