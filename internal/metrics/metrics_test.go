package metrics

import (
	"sort"
	"testing"
	"testing/quick"

	"pase/internal/sim"
)

func rec(id uint64, start, finish sim.Time, deadline sim.Time, done bool) FlowRecord {
	return FlowRecord{ID: id, Size: 1000, Start: start, Finish: finish, Deadline: deadline, Done: done}
}

func TestSummaryBasics(t *testing.T) {
	c := NewCollector()
	c.Add(rec(1, 0, sim.Time(2*sim.Millisecond), 0, true))
	c.Add(rec(2, 0, sim.Time(4*sim.Millisecond), 0, true))
	c.Add(rec(3, 0, 0, 0, false)) // incomplete
	s := c.Summarize()
	if s.Flows != 3 || s.Completed != 2 {
		t.Fatalf("flows=%d completed=%d", s.Flows, s.Completed)
	}
	if s.AFCT != 3*sim.Millisecond {
		t.Fatalf("AFCT = %v, want 3ms", s.AFCT)
	}
	if s.MaxFCT != 4*sim.Millisecond {
		t.Fatalf("MaxFCT = %v", s.MaxFCT)
	}
}

func TestDeadlineThroughput(t *testing.T) {
	c := NewCollector()
	d := sim.Time(10 * sim.Millisecond)
	c.Add(rec(1, 0, sim.Time(5*sim.Millisecond), d, true))  // met
	c.Add(rec(2, 0, sim.Time(15*sim.Millisecond), d, true)) // missed
	c.Add(rec(3, 0, 0, d, false))                           // never finished
	c.Add(rec(4, 0, sim.Time(1*sim.Millisecond), 0, true))  // no deadline
	s := c.Summarize()
	if s.DeadlineFlows != 3 {
		t.Fatalf("deadline flows = %d, want 3", s.DeadlineFlows)
	}
	if got, want := s.AppThroughput, 1.0/3.0; got != want {
		t.Fatalf("app throughput = %v, want %v", got, want)
	}
}

func TestPercentile(t *testing.T) {
	var ds []sim.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, sim.Duration(i))
	}
	if Percentile(ds, 50) != 50 {
		t.Fatalf("p50 = %v", Percentile(ds, 50))
	}
	if Percentile(ds, 99) != 99 {
		t.Fatalf("p99 = %v", Percentile(ds, 99))
	}
	if Percentile(ds, 100) != 100 {
		t.Fatalf("p100 = %v", Percentile(ds, 100))
	}
	if Percentile(ds, 1) != 1 {
		t.Fatalf("p1 = %v", Percentile(ds, 1))
	}
	if Percentile([]sim.Duration{7}, 99) != 7 {
		t.Fatal("single-element percentile")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	f := func(raw []uint32, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]sim.Duration, len(raw))
		for i, v := range raw {
			ds[i] = sim.Duration(v)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := Percentile(ds, pa), Percentile(ds, pb)
		return va <= vb && va >= ds[0] && vb <= ds[len(ds)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 1000; i++ {
		c.Add(rec(uint64(i), 0, sim.Time(i)*sim.Time(sim.Microsecond), 0, true))
	}
	cdf := c.CDF(10)
	if len(cdf) != 10 {
		t.Fatalf("cdf points = %d, want 10", len(cdf))
	}
	if cdf[len(cdf)-1].Fraction != 1.0 {
		t.Fatalf("last fraction = %v, want 1", cdf[len(cdf)-1].Fraction)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].Fraction <= cdf[i-1].Fraction {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	if c2 := NewCollector().CDF(10); c2 != nil {
		t.Fatal("empty collector CDF should be nil")
	}
}

func TestEmptySummarize(t *testing.T) {
	s := NewCollector().Summarize()
	if s.Flows != 0 || s.AFCT != 0 || s.AppThroughput != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}
