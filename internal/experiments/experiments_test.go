package experiments

import (
	"testing"

	"pase/internal/metrics"
	"pase/internal/sim"
)

// Shape tests: each paper claim is asserted with generous tolerances
// on down-scaled runs (hundreds of flows). Absolute magnitudes are
// recorded in EXPERIMENTS.md; these tests pin who wins and where.

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

// Figure 1 / 9c: at high load, deadline-aware self-adjusting endpoints
// degrade toward DCTCP while pFabric and PASE keep meeting deadlines.
func TestFig1And9cShape(t *testing.T) {
	load := 0.9
	pase := run(t, PASE, Deadline, load, PASEOptions{})
	d2 := run(t, D2TCP, Deadline, load, PASEOptions{})
	dctcp := run(t, DCTCP, Deadline, load, PASEOptions{})
	pf := run(t, PFabric, Deadline, load, PASEOptions{})

	if pf.Summary.AppThroughput <= d2.Summary.AppThroughput {
		t.Errorf("fig1: pFabric (%v) should beat D2TCP (%v) at high load",
			pf.Summary.AppThroughput, d2.Summary.AppThroughput)
	}
	if d2.Summary.AppThroughput < dctcp.Summary.AppThroughput-0.05 {
		t.Errorf("fig1: D2TCP (%v) should not be clearly worse than DCTCP (%v)",
			d2.Summary.AppThroughput, dctcp.Summary.AppThroughput)
	}
	if pase.Summary.AppThroughput <= d2.Summary.AppThroughput {
		t.Errorf("fig9c: PASE (%v) should beat D2TCP (%v) at high load",
			pase.Summary.AppThroughput, d2.Summary.AppThroughput)
	}
}

// Figure 2: PDQ wins at low load (fast convergence) and loses at high
// load (flow-switching overhead).
func TestFig2Crossover(t *testing.T) {
	low := 0.2
	high := 0.9
	pdqLow := run(t, PDQ, IntraRackLarge, low, PASEOptions{})
	dctcpLow := run(t, DCTCP, IntraRackLarge, low, PASEOptions{})
	if pdqLow.Summary.AFCT >= dctcpLow.Summary.AFCT {
		t.Errorf("fig2: PDQ (%v) should beat DCTCP (%v) at %v load",
			pdqLow.Summary.AFCT, dctcpLow.Summary.AFCT, low)
	}
	pdqHigh := run(t, PDQ, IntraRackLarge, high, PASEOptions{})
	dctcpHigh := run(t, DCTCP, IntraRackLarge, high, PASEOptions{})
	if pdqHigh.Summary.AFCT <= dctcpHigh.Summary.AFCT {
		t.Errorf("fig2: PDQ (%v) should lose to DCTCP (%v) at %v load",
			pdqHigh.Summary.AFCT, dctcpHigh.Summary.AFCT, high)
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

// Figure 4: pFabric loses a large fraction of packets under the
// worker-aggregator fan-in, >40%% at 80%% load in the paper.
func TestFig4LossRate(t *testing.T) {
	r := run(t, PFabric, WorkerAgg, 0.8, PASEOptions{})
	if r.LossRate < 0.25 {
		t.Errorf("fig4: pFabric loss rate = %v, want > 0.25", r.LossRate)
	}
	// PASE on the same workload stays essentially lossless.
	pa := run(t, PASE, WorkerAgg, 0.8, PASEOptions{})
	if pa.LossRate > 0.02 {
		t.Errorf("fig4: PASE loss rate = %v, want ~0", pa.LossRate)
	}
}

// Figure 9a: PASE clearly beats L2DCT and DCTCP in left-right,
// especially at high load (paper: 50% and 70%).
func TestFig9aShape(t *testing.T) {
	load := 0.8
	pase := run(t, PASE, LeftRight, load, PASEOptions{})
	l2 := run(t, L2DCT, LeftRight, load, PASEOptions{})
	dctcp := run(t, DCTCP, LeftRight, load, PASEOptions{})
	if float64(pase.Summary.AFCT) > 0.75*float64(l2.Summary.AFCT) {
		t.Errorf("fig9a: PASE %v vs L2DCT %v — want >=25%% better", pase.Summary.AFCT, l2.Summary.AFCT)
	}
	if float64(pase.Summary.AFCT) > 0.8*float64(dctcp.Summary.AFCT) {
		t.Errorf("fig9a: PASE %v vs DCTCP %v — want >=20%% better", pase.Summary.AFCT, dctcp.Summary.AFCT)
	}
}

// Figure 10c: in the all-to-all worker-aggregator scenario PASE beats
// pFabric at high load (crossover near the middle of the sweep).
func TestFig10cShape(t *testing.T) {
	load := 0.8
	pase := run(t, PASE, WorkerAgg, load, PASEOptions{})
	pf := run(t, PFabric, WorkerAgg, load, PASEOptions{})
	if pase.Summary.AFCT >= pf.Summary.AFCT {
		t.Errorf("fig10c: PASE (%v) should beat pFabric (%v) at %v load",
			pase.Summary.AFCT, pf.Summary.AFCT, load)
	}
}

// Figure 11b: pruning + delegation cut control-plane messages
// substantially at high load.
func TestFig11OverheadReduction(t *testing.T) {
	load := 0.8
	on := run(t, PASE, LeftRight, load, PASEOptions{})
	off := run(t, PASE, LeftRight, load, PASEOptions{NoPruning: true, NoDelegation: true})
	if on.CtrlMessages >= off.CtrlMessages {
		t.Errorf("fig11b: optimizations should reduce messages: on=%d off=%d",
			on.CtrlMessages, off.CtrlMessages)
	}
	reduction := 1 - float64(on.CtrlMessages)/float64(off.CtrlMessages)
	if reduction < 0.2 {
		t.Errorf("fig11b: overhead reduction = %.2f, want >= 0.2", reduction)
	}
	// And AFCT must not get much worse. (The paper reports 4–10%
	// better; we measure ~+2% at this load and ~-10% at 90% — see
	// EXPERIMENTS.md — so the guard only excludes regressions beyond
	// the known accuracy cost.)
	if float64(on.Summary.AFCT) > 1.25*float64(off.Summary.AFCT) {
		t.Errorf("fig11a: optimizations hurt AFCT: on=%v off=%v", on.Summary.AFCT, off.Summary.AFCT)
	}
}

// Figure 12a: end-to-end arbitration beats local-only at high load
// (paper: up to 60%). Local-only is bimodal — fine until an overload
// episode overflows a buffer and 200 ms recovery tails take over — so
// the comparison averages several seeds.
func TestFig12aShape(t *testing.T) {
	const seeds = 4
	load := 0.9
	mean := func(opts PASEOptions) float64 {
		var sum float64
		for seed := uint64(1); seed <= seeds; seed++ {
			r := RunPoint(PointConfig{Protocol: PASE, Scenario: LeftRight,
				Load: load, Seed: seed, NumFlows: testFlows, PASE: opts})
			sum += float64(r.Summary.AFCT)
		}
		return sum / seeds
	}
	e2e := mean(PASEOptions{})
	local := mean(PASEOptions{LocalOnly: true})
	if e2e > 0.75*local {
		t.Errorf("fig12a: end-to-end mean %v vs local mean %v — want >=25%% better",
			sim.Duration(e2e), sim.Duration(local))
	}
}

// Figure 12b: 4 queues capture most of the benefit; 8 queues are not
// much better, and 3 queues are the worst of the set at high load.
func TestFig12bShape(t *testing.T) {
	load := 0.8
	afct := map[int]sim.Duration{}
	for _, q := range []int{3, 8} {
		r := run(t, PASE, LeftRight, load, PASEOptions{NumQueues: q})
		afct[q] = r.Summary.AFCT
	}
	if float64(afct[8]) > 1.15*float64(afct[3]) {
		t.Errorf("fig12b: 8 queues (%v) should not lose clearly to 3 (%v)", afct[8], afct[3])
	}
}

// Figure 13a: removing the reference rate (PASE-DCTCP) hurts. The
// effect is clearest at low-to-mid loads, where the guided start is
// the dominant difference; at high load it shrinks into run noise at
// this test's scale (see EXPERIMENTS.md).
func TestFig13aShape(t *testing.T) {
	load := 0.4
	withRef := run(t, PASE, IntraRackLarge, load, PASEOptions{})
	without := run(t, PASE, IntraRackLarge, load, PASEOptions{DisableRefRate: true})
	if float64(withRef.Summary.AFCT) > 1.02*float64(without.Summary.AFCT) {
		t.Errorf("fig13a: reference rate should help: with=%v without=%v",
			withRef.Summary.AFCT, without.Summary.AFCT)
	}
}

// Figure 13b: on the (simulated) testbed PASE clearly beats DCTCP
// (paper: 50–60% smaller AFCT).
func TestFig13bShape(t *testing.T) {
	load := 0.9
	pase := run(t, PASE, Testbed, load, PASEOptions{})
	dctcp := run(t, DCTCP, Testbed, load, PASEOptions{})
	// The paper reports 50–60% at testbed scale (1000 flows); at this
	// test's reduced scale the margin is smaller but must be clear.
	if float64(pase.Summary.AFCT) > 0.85*float64(dctcp.Summary.AFCT) {
		t.Errorf("fig13b: PASE %v vs DCTCP %v — want >=15%% better",
			pase.Summary.AFCT, dctcp.Summary.AFCT)
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
