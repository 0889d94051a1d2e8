package experiments

import (
	"math"
	"os"
	"runtime"
	"testing"

	"pase/internal/metrics"
)

// TestStreamMatchesStoredCollector is the cross-check the scale figure
// rests on: the same point run stored and streaming must agree exactly
// on every sum-derived metric (flow counts, AFCT, MaxFCT, loss,
// retransmissions, control traffic) and within the sketch's ε on the
// quantiles.
func TestStreamMatchesStoredCollector(t *testing.T) {
	base := PointConfig{Protocol: DCTCP, Scenario: IntraRack, Load: 0.6, Seed: 1, NumFlows: 10_000}
	stored := RunPoint(base)

	streamed := base
	streamed.Stream = true
	got := RunPoint(streamed)

	a, b := stored.Summary, got.Summary
	if a.Flows != b.Flows || a.Completed != b.Completed || a.AFCT != b.AFCT ||
		a.MaxFCT != b.MaxFCT || a.Retransmits != b.Retransmits || a.Timeouts != b.Timeouts {
		t.Fatalf("exact metrics diverge:\nstored %+v\nstream %+v", a, b)
	}
	if stored.LossRate != got.LossRate || stored.CtrlMessages != got.CtrlMessages {
		t.Fatalf("loss/ctrl diverge: %v/%d vs %v/%d",
			stored.LossRate, stored.CtrlMessages, got.LossRate, got.CtrlMessages)
	}
	eps := metrics.DefaultSketchEps
	for _, q := range []struct {
		name       string
		got, exact int64
	}{
		{"P50", int64(b.P50), int64(a.P50)},
		{"P99", int64(b.P99), int64(a.P99)},
	} {
		if math.Abs(float64(q.got-q.exact)) > eps*float64(q.exact)+1 {
			t.Fatalf("%s: stream %d vs stored %d beyond eps %g", q.name, q.got, q.exact, eps)
		}
	}
	if len(got.Records) != 0 {
		t.Fatalf("streaming run retained %d per-flow records, want 0", len(got.Records))
	}
	if len(got.CDF) != len(stored.CDF) {
		t.Fatalf("CDF lengths diverge: %d vs %d", len(got.CDF), len(stored.CDF))
	}
	for i := range got.CDF {
		if got.CDF[i].Fraction != stored.CDF[i].Fraction {
			t.Fatalf("CDF grid diverges at %d", i)
		}
	}
}

// TestStreamSketchCounters verifies the streaming point exports its
// sketch telemetry through the observability registry.
func TestStreamSketchCounters(t *testing.T) {
	r := RunPoint(PointConfig{Protocol: DCTCP, Scenario: IntraRack, Load: 0.5, Seed: 1,
		NumFlows: 200, Stream: true, Obs: true, Check: true})
	if r.Violations != 0 {
		t.Fatalf("checker reported %d violations: %v", r.Violations, r.CheckViolations)
	}
	if r.Obs == nil {
		t.Fatal("no obs snapshot")
	}
	c := r.Obs.Counters
	if c["metrics/sketch_adds"] != int64(r.Summary.Completed) {
		t.Fatalf("sketch_adds=%d, completed=%d", c["metrics/sketch_adds"], r.Summary.Completed)
	}
	if c["metrics/sketch_buckets_used"] <= 0 || c["metrics/stream_points"] != 1 {
		t.Fatalf("sketch counters missing: %v", c)
	}
}

// TestStreamParallelDeterminism runs the streaming scale sweep at two
// pool sizes: the rendered series must be identical.
func TestStreamParallelDeterminism(t *testing.T) {
	serialVsPool(t, "scale", Opts{NumFlows: 1000, Seed: 1, Loads: []float64{0.5}}, 4)
}

// TestStreamFig9aTSVIdentical pins storage-independence end to end: an
// AFCT sweep rendered from streaming points is byte-identical to the
// stored-mode TSV, because every value it plots is an exact sum, not a
// sketch estimate.
func TestStreamFig9aTSVIdentical(t *testing.T) {
	stored := Opts{NumFlows: 300, Seed: 1, Loads: []float64{0.5, 0.7}, Parallelism: 2}
	streamed := stored
	streamed.Stream = true
	sameTSV(t, "9a", stored, streamed)
}

// TestScaleSmoke is the CI gate for the scale figure (`make
// scale-smoke`): it runs the streaming sweep and, when
// PASE_SCALE_SMOKE is set (a dedicated test process, so earlier tests
// have not inflated the heap), holds the whole 10^5-flow run under a
// 256 MB Go-heap ceiling — the bounded-memory claim as an executable
// assertion.
func TestScaleSmoke(t *testing.T) {
	top := 20_000
	gate := os.Getenv("PASE_SCALE_SMOKE") != ""
	if gate {
		top = 100_000
	} else if testing.Short() {
		t.Skip("short mode")
	}
	fig, _ := Lookup("scale")
	res := fig.Run(Opts{NumFlows: top, Seed: 1})
	if res.Points != 6 {
		t.Fatalf("scale figure ran %d points, want 6", res.Points)
	}
	for _, s := range res.Series {
		if len(s.X) != 3 {
			t.Fatalf("series %q has %d points, want 3", s.Name, len(s.X))
		}
		if s.X[2] != float64(top) {
			t.Fatalf("series %q tops out at %g flows, want %d", s.Name, s.X[2], top)
		}
		for j, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %q point %d: non-positive FCT %g", s.Name, j, y)
			}
		}
	}
	if res.Violations != 0 {
		t.Fatalf("%d invariant violations", res.Violations)
	}
	if gate {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		const ceiling = 256 << 20
		if ms.HeapSys > ceiling {
			t.Fatalf("heap grew to %d MB, ceiling %d MB — streaming path is leaking per-flow state",
				ms.HeapSys>>20, int64(ceiling)>>20)
		}
		t.Logf("HeapSys after %d-flow sweep: %d MB", top, ms.HeapSys>>20)
	}
}
