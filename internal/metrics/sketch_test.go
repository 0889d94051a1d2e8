package metrics

import (
	"math"
	"sort"
	"testing"

	"pase/internal/sim"
)

// sketchDists are the sample shapes the differential suite covers:
// uniform and exponential spread, duplicate-heavy (few distinct
// values), and adversarial insert orders (sorted, reversed) that would
// break an order-sensitive estimator.
var sketchDists = []struct {
	name string
	gen  func(r *sim.Rand, n int) []int64
}{
	{"uniform", func(r *sim.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = r.UniformInt(1, 50_000_000)
		}
		return out
	}},
	{"exponential", func(r *sim.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(r.ExpDuration(5 * sim.Millisecond))
		}
		return out
	}},
	{"duplicate-heavy", func(r *sim.Rand, n int) []int64 {
		vals := []int64{0, 1, 77, 4096, 1_000_000, 123_456_789}
		out := make([]int64, n)
		for i := range out {
			out[i] = vals[r.Intn(len(vals))]
		}
		return out
	}},
	{"sorted", func(r *sim.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = r.UniformInt(0, 1_000_000_000)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}},
	{"reversed", func(r *sim.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = r.UniformInt(0, 1_000_000_000)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
		return out
	}},
}

// sketchEps is the relative error bound s was built to honour.
func sketchEps(s *QuantileSketch) float64 { return 1 / float64(int64(1)<<(s.mbits+1)) }

// checkQuantile asserts the sketch estimate is within the sketch's
// relative error of the exact nearest-rank percentile (+1 for integer
// rounding in the exact-bucket region).
func checkQuantile(t *testing.T, s *QuantileSketch, sorted []sim.Duration, p float64) {
	t.Helper()
	got := s.Quantile(p)
	want := int64(Percentile(sorted, p))
	tol := sketchEps(s)*float64(want) + 1
	if math.Abs(float64(got-want)) > tol {
		t.Fatalf("p%g: sketch %d vs exact %d exceeds tolerance %g (n=%d)", p, got, want, tol, len(sorted))
	}
}

// TestSketchDifferential pins the streaming quantile path to the exact
// stored one: across distributions and sizes from 1 to 10^6 samples,
// every quantile the harness reports must agree with
// metrics.Percentile within the sketch's advertised error.
func TestSketchDifferential(t *testing.T) {
	sizes := []int{1, 2, 3, 10, 100, 1000, 10_000}
	if !testing.Short() {
		sizes = append(sizes, 1_000_000)
	}
	for _, d := range sketchDists {
		for _, n := range sizes {
			r := sim.NewRand(uint64(n)*31 + 7)
			vals := d.gen(r, n)
			s := NewQuantileSketch(0)
			sorted := make([]sim.Duration, n)
			for i, v := range vals {
				s.Add(v)
				sorted[i] = sim.Duration(v)
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, p := range []float64{0, 1, 25, 50, 75, 90, 99, 99.9, 100} {
				checkQuantile(t, s, sorted, p)
			}
			if s.Count() != int64(n) {
				t.Fatalf("%s/%d: count %d", d.name, n, s.Count())
			}
			if int64(sorted[0]) != s.Min() || int64(sorted[n-1]) != s.Max() {
				t.Fatalf("%s/%d: min/max %d/%d vs exact %v/%v",
					d.name, n, s.Min(), s.Max(), sorted[0], sorted[n-1])
			}
		}
	}
}

// TestSketchCustomEps verifies a looser ε still honors its own bound
// and a tighter one shrinks the error.
func TestSketchCustomEps(t *testing.T) {
	for _, eps := range []float64{0.05, 0.01, 0.001} {
		s := NewQuantileSketch(eps)
		if sketchEps(s) > eps {
			t.Fatalf("eps %g: sketch guarantees only %g", eps, sketchEps(s))
		}
		r := sim.NewRand(9)
		var sorted []sim.Duration
		for i := 0; i < 10_000; i++ {
			v := r.UniformInt(0, 1_000_000_000)
			s.Add(v)
			sorted = append(sorted, sim.Duration(v))
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, p := range []float64{50, 99} {
			checkQuantile(t, s, sorted, p)
		}
	}
}

func TestSketchEmptyAndEdge(t *testing.T) {
	s := NewQuantileSketch(0)
	if s.Quantile(50) != 0 || s.Count() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sketch must report zeros")
	}
	s.Add(-5) // clamped to 0
	s.Add(0)
	if s.Min() != 0 || s.Max() != 0 || s.Count() != 2 {
		t.Fatalf("negative clamp: min=%d max=%d count=%d", s.Min(), s.Max(), s.Count())
	}
	big := int64(math.MaxInt64)
	s.Add(big)
	if s.Max() != big || s.Quantile(100) != big {
		t.Fatalf("max sample: max=%d q100=%d", s.Max(), s.Quantile(100))
	}
}

// TestPercentileEmpty is the regression test for the historical
// empty-slice panic: no percentile of nothing is the zero duration.
func TestPercentileEmpty(t *testing.T) {
	for _, p := range []float64{0, 50, 100} {
		if got := Percentile(nil, p); got != 0 {
			t.Fatalf("Percentile(nil, %g) = %v, want 0", p, got)
		}
	}
}

// TestStreamCollectorMatchesCollector runs identical records, aborted
// and timed-out flows among them, through both sinks: everything but
// P50/P99 must match exactly, and those must be within the sketch's ε.
func TestStreamCollectorMatchesCollector(t *testing.T) {
	r := sim.NewRand(11)
	stored := NewCollector()
	stream := NewStreamCollector(0)
	for i := 0; i < 20_000; i++ {
		start := sim.Time(r.UniformInt(0, int64(sim.Second)))
		fct := r.ExpDuration(3 * sim.Millisecond)
		rec := FlowRecord{
			ID:       uint64(i + 1),
			Size:     r.UniformInt(1000, 100_000),
			Start:    start,
			Finish:   start.Add(fct),
			Done:     i%97 != 0, // sprinkle unfinished flows
			Aborted:  i%97 == 0 && i%2 == 0,
			Retx:     i % 5,
			Timeouts: i % 3,
		}
		if i%7 == 0 {
			rec.Deadline = start.Add(4 * sim.Millisecond)
		}
		stored.Add(rec)
		stream.Add(rec)
	}
	a, b := stored.Summarize(), stream.Summarize()
	exactA, exactB := a, b
	exactA.P50, exactA.P99, exactB.P50, exactB.P99 = 0, 0, 0, 0
	if exactA != exactB || a.Aborted == 0 || a.Timeouts == 0 {
		t.Fatalf("exact fields diverge:\nstored %+v\nstream %+v", a, b)
	}
	eps := sketchEps(stream.Sketch())
	for _, q := range []struct{ got, want sim.Duration }{{b.P50, a.P50}, {b.P99, a.P99}} {
		if math.Abs(float64(q.got-q.want)) > eps*float64(q.want)+1 {
			t.Fatalf("quantile %v vs exact %v beyond eps %g", q.got, q.want, eps)
		}
	}
	ca, cb := stored.CDF(64), stream.CDF(64)
	if len(ca) != len(cb) {
		t.Fatalf("CDF lengths %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].Fraction != cb[i].Fraction {
			t.Fatalf("CDF grid diverges at %d: %v vs %v", i, ca[i].Fraction, cb[i].Fraction)
		}
		if math.Abs(float64(cb[i].Value-ca[i].Value)) > eps*float64(ca[i].Value)+1 {
			t.Fatalf("CDF value %d: %v vs %v beyond eps", i, cb[i].Value, ca[i].Value)
		}
	}
}

// TestStreamCollectorAddNoAllocs is the allocation regression gate for
// the streaming hot path.
func TestStreamCollectorAddNoAllocs(t *testing.T) {
	c := NewStreamCollector(0)
	rec := FlowRecord{ID: 1, Size: 1000, Finish: sim.Time(3 * sim.Millisecond), Done: true}
	allocs := testing.AllocsPerRun(1000, func() {
		rec.ID++
		rec.Finish += 999
		c.Add(rec)
	})
	if allocs != 0 {
		t.Fatalf("StreamCollector.Add allocates %v times per record, want 0", allocs)
	}
}

func BenchmarkStreamCollectorAdd(b *testing.B) {
	c := NewStreamCollector(0)
	rec := FlowRecord{ID: 1, Size: 1000, Finish: sim.Time(3 * sim.Millisecond), Done: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Finish += 997
		c.Add(rec)
	}
}

func BenchmarkCollectorAdd(b *testing.B) {
	c := NewCollector()
	rec := FlowRecord{ID: 1, Size: 1000, Finish: sim.Time(3 * sim.Millisecond), Done: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Finish += 997
		c.Add(rec)
	}
}

// FuzzQuantileSketch feeds arbitrary byte strings as sample streams and
// checks the sketch's structural oracles: quantiles are monotone in p,
// bounded by the exact min/max, and count bookkeeping holds.
func FuzzQuantileSketch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []int64
		for i := 0; i+8 <= len(data); i += 8 {
			var v int64
			for j := 0; j < 8; j++ {
				v = v<<8 | int64(data[i+j])
			}
			if v < 0 {
				v = -v
			}
			if v < 0 { // MinInt64
				v = 0
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return
		}
		whole := NewQuantileSketch(0)
		for _, v := range vals {
			whole.Add(v)
		}
		var mn, mx int64 = vals[0], vals[0]
		for _, v := range vals {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if whole.Min() != mn || whole.Max() != mx || whole.Count() != int64(len(vals)) {
			t.Fatalf("bookkeeping: min=%d/%d max=%d/%d count=%d/%d",
				whole.Min(), mn, whole.Max(), mx, whole.Count(), len(vals))
		}
		prev := int64(-1)
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
			q := whole.Quantile(p)
			if q < mn || q > mx {
				t.Fatalf("p%g=%d escapes [%d, %d]", p, q, mn, mx)
			}
			if q < prev {
				t.Fatalf("quantiles not monotone: p%g=%d < %d", p, q, prev)
			}
			prev = q
		}
	})
}
