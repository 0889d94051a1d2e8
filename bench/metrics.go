package main

import (
	"math"
	"sort"
)

// metricDef names one metric of BENCHMARK.json. The test pins this
// table to that file, so the two cannot drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the base median by which an end-to-end
	// metric may worsen before it counts as a regression; per-layer
	// metrics carry none.
	Bound float64
}

// endToEnd are the metrics a user of the simulator sees, one value per
// workload, measured with Obs, Check and tracing off.
//
// The bounds are what this host can resolve, measured over ten seeds
// per workload (README, "Noise"). Host time on the shared 2-core
// reference host moves 10–20% between quiet and busy minutes, so the
// two timings carry the widest bound the contract allows. The
// allocation bounds are wider than same-seed repeatability (which is
// near exact) needs: every sample draws its own flows, and bytes per
// flow follow the mean flow size of the draw.
var endToEnd = []metricDef{
	{Name: "flows_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_bytes_per_flow", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "allocs_per_flow", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// layers are the rows of the layer table: the repo packages a profile
// sample can be charged to, then the three runtime buckets.
var layers = []string{
	"sim", "netem", "transport", "arbitration", "endhost", "topology",
	"workload", "metrics", "obs", "experiments",
	"runtime.alloc", "runtime.gc", "runtime.other",
}

// shareMetric is the per-layer metric name of a layer's CPU share.
func shareMetric(layer string) string {
	switch layer {
	case "runtime.alloc", "runtime.gc", "runtime.other":
		return layer + "_cpu_share"
	}
	return layer + ".cpu_share"
}

// perLayer lists every per-layer metric: counts from the traced child,
// host time by layer from its CPU profile, and the workload-independent
// layer drivers.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.events_per_flow", Unit: "count", Better: "lower"},
		{Name: "sim.timer_stop_share", Unit: "share", Better: "lower"},
		{Name: "sim.heap_depth_max", Unit: "count", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "netem.pkts_per_flow", Unit: "count", Better: "lower"},
		{Name: "netem.drop_share", Unit: "share", Better: "lower"},
		{Name: "netem.mark_share", Unit: "share", Better: "lower"},
		{Name: "transport.retx_per_flow", Unit: "count", Better: "lower"},
		{Name: "transport.timeouts_per_flow", Unit: "count", Better: "lower"},
		{Name: "arbitration.msgs_per_flow", Unit: "count", Better: "lower"},
		{Name: "arbitration.refreshes_per_flow", Unit: "count", Better: "lower"},
		{Name: "shard.windows", Unit: "count", Better: "lower"},
		{Name: "shard.handoffs_per_window", Unit: "count", Better: "higher"},
		{Name: "shard.null_window_share", Unit: "share", Better: "lower"},
		{Name: "shard.stall_share", Unit: "share", Better: "lower"},
		{Name: "shard.fallback_serial", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_count", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		{Name: "simstat.afct_us", Unit: "us", Better: "lower"},
		{Name: "simstat.p99_us", Unit: "us", Better: "lower"},
		{Name: "simstat.loss_pct", Unit: "%", Better: "lower"},
		{Name: "simstat.digest_ok", Unit: "count", Better: "higher"},
		{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},
		{Name: "obs.noise_floor_pct", Unit: "%", Better: "lower"},
		{Name: "check.overhead_pct", Unit: "%", Better: "lower"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{Name: shareMetric(l), Unit: "share", Better: "lower"})
	}
	defs = append(defs, driverMetrics()...)
	return append(defs,
		metricDef{Name: "host.yardstick_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "host.yardstick_drift_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
	)
}()

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stat is an end-to-end metric over the timed samples; the median is
// the reported figure.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// spread is the distance between the quartiles as a share of the
// median — the figure the driver holds against a metric's bound.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// summarize condenses samples into median and quartiles. The quartiles
// follow Python's statistics.quantiles(v, n=4), the driver's rule.
func summarize(v []float64, unit string) stat {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	st := stat{N: len(s), Unit: unit}
	if len(s) == 0 {
		return st
	}
	st.Median = median(s)
	st.Q1, st.Q3 = st.Median, st.Median
	if len(s) >= 2 {
		st.Q1, st.Q3 = quantile(s, 1), quantile(s, 3)
	}
	return st
}

// median of a sorted slice.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the i-th quartile cut of a sorted slice of at least
// two values (the "exclusive" method).
func quantile(s []float64, i int) float64 {
	const n = 4
	ld := len(s)
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*n)
	return (s[j-1]*(n-delta) + s[j]*delta) / n
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return median(s)
}
