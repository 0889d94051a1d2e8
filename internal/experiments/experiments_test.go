package experiments

import (
	"reflect"
	"strings"
	"testing"

	"pase/internal/metrics"
	"pase/internal/sim"
)

// The paper's who-wins claims are the claims table's rows
// (claims_test.go), graded by TestClaims and the TestFig* tests there;
// these tests check what those rows do not: every point completes, the
// toy's per-flow FCTs, and the extensions.

const testFlows = 300

func run(t *testing.T, p Protocol, s Scenario, load float64, opts PASEOptions) PointResult {
	t.Helper()
	return RunPoint(PointConfig{Protocol: p, Scenario: s, Load: load, Seed: 1, NumFlows: testFlows, PASE: opts})
}

func TestAllPointsComplete(t *testing.T) {
	// Every protocol finishes every foreground flow in every scenario
	// at moderate load.
	for _, p := range []Protocol{DCTCP, D2TCP, L2DCT, PFabric, PDQ, PASE} {
		for _, s := range []Scenario{IntraRack, LeftRight} {
			r := RunPoint(PointConfig{Protocol: p, Scenario: s, Load: 0.5, Seed: 2, NumFlows: 150})
			if r.Summary.Completed != 150 {
				t.Errorf("%s/%s: completed %d/150", p, s, r.Summary.Completed)
			}
		}
	}
}

// Figure 3: the toy example. PASE must not be worse for any flow, and
// flow 3 (link-disjoint from flow 1) must finish near its parallel
// optimum under PASE. Both runs are checked.
func TestFig3Toy(t *testing.T) {
	fcts := func(p Protocol) (out [3]sim.Duration) {
		r := RunPoint(PointConfig{Protocol: p, Scenario: toy, Check: true})
		if r.Violations != 0 {
			t.Fatalf("toy %s: %d invariant violations:\n%v", p, r.Violations, r.CheckViolations)
		}
		if r.Summary.Completed != len(out) {
			t.Fatalf("toy %s: %d of %d flows completed", p, r.Summary.Completed, len(out))
		}
		for _, rec := range r.Records {
			out[rec.ID-1] = rec.FCT()
		}
		return out
	}
	pf := fcts(PFabric)
	pa := fcts(PASE)
	// Flow 1 (highest priority) is unaffected in both.
	if pf[0] > 6*sim.Millisecond || pa[0] > 6*sim.Millisecond {
		t.Errorf("toy: flow 1 should be near 4ms: pFabric %v, PASE %v", pf[0], pa[0])
	}
	// Flow 3 could run in parallel with flow 1 (8 ms at line rate).
	if pa[2] > 12*sim.Millisecond {
		t.Errorf("toy: PASE flow 3 = %v, want near the 8ms parallel optimum", pa[2])
	}
	if pa[2] > pf[2]+sim.Millisecond {
		t.Errorf("toy: PASE flow 3 (%v) should not lose to pFabric (%v)", pa[2], pf[2])
	}
}

// Extension (§3.1.1's task-id criterion): task-aware arbitration must
// reduce mean task completion time and serve tasks closer to FIFO on
// the worker-aggregator workload at high load.
func TestTaskAwareScheduling(t *testing.T) {
	load := 0.9
	taskAware := run(t, PASE, WorkerAgg, load, PASEOptions{TaskAware: true})
	sizeBased := run(t, PASE, WorkerAgg, load, PASEOptions{})

	ta := metrics.Tasks(taskAware.Records)
	sb := metrics.Tasks(sizeBased.Records)
	if len(ta) == 0 || len(sb) == 0 {
		t.Fatal("worker-agg records must carry task ids")
	}
	if metrics.MeanTCT(ta) >= metrics.MeanTCT(sb) {
		t.Errorf("task-aware mean TCT %v should beat size-based %v",
			metrics.MeanTCT(ta), metrics.MeanTCT(sb))
	}
	if metrics.TaskOrderInversions(ta) >= metrics.TaskOrderInversions(sb) {
		t.Errorf("task-aware inversions %d should be below size-based %d",
			metrics.TaskOrderInversions(ta), metrics.TaskOrderInversions(sb))
	}
}

func TestCDFOutputs(t *testing.T) {
	r := run(t, PASE, LeftRight, 0.7, PASEOptions{})
	if len(r.CDF) == 0 {
		t.Fatal("CDF should be populated")
	}
	last := r.CDF[len(r.CDF)-1]
	if last.Fraction != 1.0 {
		t.Fatalf("CDF should end at 1.0, got %v", last.Fraction)
	}
}

func TestLookupAndRegistry(t *testing.T) {
	if len(Figures) != 24 {
		t.Fatalf("registry has %d figures, want 24", len(Figures))
	}
	if _, ok := Lookup("9a"); !ok {
		t.Fatal("figure 9a missing")
	}
	if _, ok := Lookup("robust"); !ok {
		t.Fatal("figure robust missing")
	}
	if _, ok := Lookup("highspeed"); !ok {
		t.Fatal("figure highspeed missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus figure should not resolve")
	}
}

func TestRenderFigure(t *testing.T) {
	fig, _ := Lookup("probing")
	res := fig.Run(Opts{NumFlows: 60, Seed: 3, Loads: []float64{0.8}})
	text := res.Render()
	if len(text) == 0 {
		t.Fatal("render produced nothing")
	}
}

func TestDeterministicPoints(t *testing.T) {
	a := RunPoint(PointConfig{Protocol: PASE, Scenario: IntraRack, Load: 0.6, Seed: 9, NumFlows: 100})
	b := RunPoint(PointConfig{Protocol: PASE, Scenario: IntraRack, Load: 0.6, Seed: 9, NumFlows: 100})
	if a.Summary.AFCT != b.Summary.AFCT || a.CtrlMessages != b.CtrlMessages {
		t.Fatalf("identical configs diverged: %v vs %v", a.Summary, b.Summary)
	}
}

// Extension: PASE on the multipath leaf-spine fabric — arbitration
// composes with per-flow ECMP (the control plane arbitrates exactly
// the links each flow's hash selects) and still beats DCTCP.
func TestLeafSpineExtension(t *testing.T) {
	load := 0.8
	pase := run(t, PASE, LeafSpine, load, PASEOptions{})
	dctcp := run(t, DCTCP, LeafSpine, load, PASEOptions{})
	if pase.Summary.Completed != testFlows || dctcp.Summary.Completed != testFlows {
		t.Fatalf("incomplete: pase=%d dctcp=%d", pase.Summary.Completed, dctcp.Summary.Completed)
	}
	if pase.Summary.AFCT >= dctcp.Summary.AFCT {
		t.Errorf("leaf-spine: PASE %v should beat DCTCP %v", pase.Summary.AFCT, dctcp.Summary.AFCT)
	}
	if pase.CtrlMessages == 0 {
		t.Error("cross-leaf flows must arbitrate through leaf arbitrators")
	}
}

// TestEveryFigureOptionIsHonouredOrRejected holds every registered
// figure to each option that shapes its grid: Check rejects the option,
// naming the figure and the field, or the points the figure builds
// differ from those it builds at its defaults (two loads: from those of
// the first load alone). It compares built configs and runs no
// simulation.
func TestEveryFigureOptionIsHonouredOrRejected(t *testing.T) {
	base := Opts{Seed: 1}
	options := []struct {
		name, field string
		set         func(*Opts)
		ref         Opts // the options the points must differ from
	}{
		{"NumFlows", "NumFlows", func(o *Opts) { o.NumFlows = 500 }, base},
		{"Seeds", "Seeds", func(o *Opts) { o.Seeds = 5 }, base},
		{"one load", "Loads", func(o *Opts) { o.Loads = []float64{0.9} }, base},
		{"two loads", "Loads", func(o *Opts) { o.Loads = []float64{0.3, 0.9} }, Opts{Seed: 1, Loads: []float64{0.3}}},
		{"Racks", "Racks", func(o *Opts) { o.Racks = 16 }, base},
		{"Ctrl", "Ctrl", func(o *Opts) { o.Ctrl = "central" }, base},
		{"Stream", "Stream", func(o *Opts) { o.Stream = true }, base},
	}
	// exempt names the pairs whose points need not move, with the reason.
	exempt := map[string]string{
		"3/NumFlows":   "the toy runs its own three flows and draws no workload",
		"3/one load":   "the toy runs its own three flows and draws no workload",
		"scale/Stream": "its arms stream every point already, as Stream asks",
	}
	points := func(f Figure, o Opts) []PointConfig {
		_, cfgs, _ := f.grid(f.resolve(o))
		return cfgs
	}
	for _, f := range Figures {
		if err := f.Check(base); err != nil {
			t.Fatalf("figure %s rejects its defaults: %v", f.ID, err)
		}
		for _, opt := range options {
			t.Run(f.ID+"/"+opt.name, func(t *testing.T) {
				o := base
				opt.set(&o)
				if err := f.Check(o); err != nil {
					if msg := err.Error(); !strings.Contains(msg, "figure "+f.ID+" ") || !strings.Contains(msg, opt.field) {
						t.Errorf("Check: %v, want an error naming figure %s and %s", err, f.ID, opt.field)
					}
					return
				}
				if why, ok := exempt[f.ID+"/"+opt.name]; ok {
					t.Skip(why)
				}
				if reflect.DeepEqual(points(f, opt.ref), points(f, o)) {
					t.Errorf("%s is accepted and builds the same points as %+v", opt.field, opt.ref)
				}
			})
		}
	}
}
