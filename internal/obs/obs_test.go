package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Inc()
	c.Add(4)
	if c.v != 5 {
		t.Fatalf("counter = %d, want 5", c.v)
	}
	if r.Counter("events") != c {
		t.Fatal("second lookup of the same counter name returned a new instrument")
	}

	g := r.Gauge("depth")
	g.Update(3)
	g.Update(9)
	g.Update(2)
	if g.max != 9 {
		t.Fatalf("gauge max=%d, want 9", g.max)
	}

	h := r.Histogram("lat")
	for _, v := range []int64{0, 1, 2, 3, 1024, -5} {
		h.Observe(v)
	}
	if h.count != 6 || h.sum != 1025 {
		t.Fatalf("hist count=%d sum=%d, want 6/1025", h.count, h.sum)
	}
}

func TestHistogramBuckets(t *testing.T) {
	// Bucket 0: v <= 0; bucket i: [2^(i-1), 2^i).
	cases := []struct {
		v    int64
		want int
	}{
		{-1, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 40, 41}, {1<<62 + 1, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry should hand out nil instruments")
	}
	// None of these may panic.
	c.Inc()
	c.Add(10)
	g.Update(42)
	h.Observe(7)
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
}

// The disabled path — nil instruments — must cost zero allocations,
// and so must the enabled hot path. This is the contract that lets
// every component instrument itself unconditionally.
func TestIncrementsAreAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	checks := []struct {
		name string
		fn   func()
	}{
		{"counter", func() { c.Inc(); c.Add(3) }},
		{"gauge", func() { g.Update(17) }},
		{"histogram", func() { h.Observe(12345) }},
		{"nil-counter", func() { nc.Inc(); nc.Add(3) }},
		{"nil-gauge", func() { ng.Update(17) }},
		{"nil-histogram", func() { nh.Observe(12345) }},
	}
	for _, ck := range checks {
		if allocs := testing.AllocsPerRun(1000, ck.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", ck.name, allocs)
		}
	}
}

func TestSnapshotAndMerge(t *testing.T) {
	mk := func(base int64) *Snapshot {
		r := NewRegistry()
		r.Counter("a").Add(base)
		r.Counter("b").Add(2 * base)
		r.Gauge("g").Update(base)
		r.Histogram("h").Observe(base)
		r.Histogram("h").Observe(4 * base)
		return r.Snapshot()
	}
	a, b := mk(1), mk(8)
	m := MergeAll([]*Snapshot{a, nil, b})
	if m.Counters["a"] != 9 || m.Counters["b"] != 18 {
		t.Fatalf("merged counters = %v", m.Counters)
	}
	if m.Gauges["g"] != 8 {
		t.Fatalf("merged gauge = %d, want 8", m.Gauges["g"])
	}
	h := m.Histograms["h"]
	if h.Count != 4 || h.Sum != 1+4+8+32 || h.Min != 1 || h.Max != 32 {
		t.Fatalf("merged hist = %+v", h)
	}
	// Merge must not mutate its source.
	if a.Counters["a"] != 1 || b.Counters["a"] != 8 {
		t.Fatal("Merge mutated a source snapshot")
	}
	if MergeAll(nil) != nil || MergeAll([]*Snapshot{nil, nil}) != nil {
		t.Fatal("MergeAll of nothing should be nil")
	}
}

// Merging in any order must serialize to identical bytes — the
// property the parallel experiment pool's manifest merging relies on.
func TestMergeOrderIndependentBytes(t *testing.T) {
	mk := func(base int64) *Snapshot {
		r := NewRegistry()
		r.Counter("pkts").Add(base)
		r.Gauge("depth").Update(base * 3)
		for i := int64(0); i < base; i++ {
			r.Histogram("occ").Observe(i)
		}
		return r.Snapshot()
	}
	snaps := []*Snapshot{mk(3), mk(11), mk(7)}
	ab := MergeAll([]*Snapshot{snaps[0], snaps[1], snaps[2]})
	ba := MergeAll([]*Snapshot{snaps[2], snaps[0], snaps[1]})
	j1, err := json.Marshal(ab)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(ba)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("merge order changed bytes:\n%s\n%s", j1, j2)
	}
}

func TestHistogramSnapshotTrimsTrailingZeros(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h").Observe(5) // bucket 3
	s := r.Snapshot()
	if got := len(s.Histograms["h"].Buckets); got != 4 {
		t.Fatalf("buckets length = %d, want 4 (trailing zeros trimmed)", got)
	}
}
