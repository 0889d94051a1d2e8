package workload

import (
	"math"
	"testing"
	"testing/quick"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
)

func TestUniformSize(t *testing.T) {
	r := sim.NewRand(1)
	d := UniformSize{Min: 2000, Max: 198000}
	if d.Mean() != 100000 {
		t.Fatalf("mean = %v, want 100000", d.Mean())
	}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v < 2000 || v > 198000 {
			t.Fatalf("sample %d out of range", v)
		}
		sum += float64(v)
	}
	if got := sum / n; math.Abs(got-100000) > 1000 {
		t.Fatalf("empirical mean = %v", got)
	}
}

func TestAllToAllNeverSelfPair(t *testing.T) {
	r := sim.NewRand(2)
	p := AllToAll{Hosts: HostRange(0, 20)}
	seen := make(map[pkt.NodeID]bool)
	for i := 0; i < 20000; i++ {
		s, d := p.Pair(r)
		if s == d {
			t.Fatal("self pair generated")
		}
		seen[s] = true
		seen[d] = true
	}
	if len(seen) != 20 {
		t.Fatalf("only %d hosts used, want 20", len(seen))
	}
}

// Property: AllToAll destination selection stays uniform over hosts.
func TestAllToAllUniformity(t *testing.T) {
	r := sim.NewRand(9)
	p := AllToAll{Hosts: HostRange(0, 10)}
	counts := make(map[pkt.NodeID]int)
	const n = 100000
	for i := 0; i < n; i++ {
		_, d := p.Pair(r)
		counts[d]++
	}
	want := float64(n) / 10
	for h, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("host %d got %d picks, want ≈%v", h, c, want)
		}
	}
}

func TestLeftRightSides(t *testing.T) {
	r := sim.NewRand(4)
	p := LeftRight{Left: HostRange(0, 80), Right: HostRange(80, 160)}
	for i := 0; i < 10000; i++ {
		s, d := p.Pair(r)
		if s >= 80 || d < 80 {
			t.Fatalf("pair (%d,%d) crosses sides wrongly", s, d)
		}
	}
}

func TestArrivalRate(t *testing.T) {
	s := Spec{
		Sizes:     UniformSize{Min: 2000, Max: 198000}, // mean 100 KB
		Load:      0.5,
		Reference: 10 * netem.Gbps,
	}
	// 0.5 * 10e9 / (100000*8) = 6250 flows/sec.
	if got := s.ArrivalRate(); math.Abs(got-6250) > 1e-6 {
		t.Fatalf("arrival rate = %v, want 6250", got)
	}
}

func TestGenerate(t *testing.T) {
	s := Spec{
		Pattern:         AllToAll{Hosts: HostRange(0, 20)},
		Sizes:           UniformSize{Min: 100000, Max: 500000},
		Load:            0.6,
		Reference:       20 * netem.Gbps,
		NumFlows:        500,
		DeadlineMin:     5 * sim.Millisecond,
		DeadlineMax:     25 * sim.Millisecond,
		BackgroundFlows: 2,
	}
	r := sim.NewRand(7)
	flows := s.Generate(r, 100)
	if len(flows) != 502 {
		t.Fatalf("generated %d flows, want 502", len(flows))
	}
	if !flows[0].Background || !flows[1].Background || flows[2].Background {
		t.Fatal("background flows must come first")
	}
	if flows[0].Start != 0 {
		t.Fatal("background flows start at 0")
	}
	if flows[0].ID != 100 || flows[501].ID != 601 {
		t.Fatal("IDs must be sequential from firstID")
	}
	prev := sim.Time(0)
	for _, f := range flows[2:] {
		if f.Start < prev {
			t.Fatal("arrivals must be non-decreasing")
		}
		prev = f.Start
		if f.Deadline < f.Start.Add(5*sim.Millisecond) || f.Deadline > f.Start.Add(25*sim.Millisecond) {
			t.Fatalf("deadline %v outside 5-25ms after start %v", f.Deadline, f.Start)
		}
		if f.Src == f.Dst {
			t.Fatal("self flow")
		}
	}
}

func TestGenerateArrivalRateEmpirical(t *testing.T) {
	s := Spec{
		Pattern:   AllToAll{Hosts: HostRange(0, 10)},
		Sizes:     UniformSize{Min: 100000, Max: 100000},
		Load:      0.8,
		Reference: 10 * netem.Gbps,
		NumFlows:  20000,
	}
	r := sim.NewRand(11)
	flows := s.Generate(r, 0)
	last := flows[len(flows)-1].Start
	gotRate := float64(len(flows)) / last.Sub(0).Seconds()
	wantRate := s.ArrivalRate()
	if math.Abs(gotRate-wantRate)/wantRate > 0.03 {
		t.Fatalf("empirical rate %v, want ≈%v", gotRate, wantRate)
	}
}

// Property: generation is deterministic given the seed.
func TestGenerateDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		s := Spec{
			Pattern:   AllToAll{Hosts: HostRange(0, 8)},
			Sizes:     UniformSize{Min: 1000, Max: 9000},
			Load:      0.5,
			Reference: netem.Gbps,
			NumFlows:  50,
		}
		a := s.Generate(sim.NewRand(seed), 0)
		b := s.Generate(sim.NewRand(seed), 0)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHostRange(t *testing.T) {
	hr := HostRange(3, 6)
	if len(hr) != 3 || hr[0] != 3 || hr[2] != 5 {
		t.Fatalf("HostRange = %v", hr)
	}
}

// TestValidate: each precondition rejects its own bad Spec, and a
// Generate on it panics rather than emitting flows.
func TestValidate(t *testing.T) {
	ok := func() Spec {
		return Spec{
			Pattern: AllToAll{Hosts: HostRange(0, 4)}, Sizes: UniformSize{Min: 1, Max: 10},
			Load: 1, Reference: netem.Gbps, NumFlows: 3,
		}
	}
	if err := ok().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := map[string]func(*Spec){
		"one host":         func(s *Spec) { s.Pattern = AllToAll{Hosts: HostRange(0, 1)} },
		"empty side":       func(s *Spec) { s.Pattern = LeftRight{Left: HostRange(0, 1)} },
		"no pattern":       func(s *Spec) { s.Pattern = nil },
		"fanin left-right": func(s *Spec) { s.Pattern = LeftRight{Left: HostRange(0, 1), Right: HostRange(1, 2)}; s.Fanin = 4 },
		"no sizes":         func(s *Spec) { s.Sizes = nil },
		"min above max":    func(s *Spec) { s.Sizes = UniformSize{Min: 5000, Max: 100} },
		"zero-byte flows":  func(s *Spec) { s.Sizes = UniformSize{Min: 0, Max: 100} },
		"zero load":        func(s *Spec) { s.Load = 0 },
		"load above one":   func(s *Spec) { s.Load = 1.5 },
		"negative ref":     func(s *Spec) { s.Reference = -netem.Gbps },
		"negative flows":   func(s *Spec) { s.NumFlows = -3 },
		"negative bg":      func(s *Spec) { s.BackgroundFlows = -1 },
		"deadlines swapped": func(s *Spec) {
			s.DeadlineMin, s.DeadlineMax = 25*sim.Millisecond, 5*sim.Millisecond
		},
	}
	for name, mutate := range bad {
		s := ok()
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Generate did not panic", name)
				}
			}()
			s.Generate(sim.NewRand(1), 1)
		}()
	}
}
