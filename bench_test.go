package pase_test

// One benchmark per table/figure of the paper's evaluation. Each
// benchmark regenerates the figure's series at a reduced per-point
// flow count (so `go test -bench .` completes in minutes) and reports
// the headline metric of the figure through b.ReportMetric, letting
// `-bench` runs double as a quick reproduction check. cmd/paper runs
// the same experiments at full scale.

import (
	"testing"

	"pase"
)

// benchFigure regenerates figure id once per iteration.
func benchFigure(b *testing.B, id string, flows int, loads []float64) *pase.FigureData {
	b.Helper()
	var fig *pase.FigureData
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = pase.RunFigure(id, pase.FigureOpts{NumFlows: flows, Seed: 1, Loads: loads})
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

// lastY returns the final point of the named series.
func lastY(fig *pase.FigureData, name string) float64 {
	for _, s := range fig.Series {
		if s.Name == name {
			return s.Y[len(s.Y)-1]
		}
	}
	return -1
}

func BenchmarkFig01DeadlineThroughput(b *testing.B) {
	fig := benchFigure(b, "1", 200, []float64{0.3, 0.6, 0.9})
	b.ReportMetric(lastY(fig, "pFabric"), "pfabric_tput@90%")
	b.ReportMetric(lastY(fig, "D2TCP"), "d2tcp_tput@90%")
}

func BenchmarkFig02PDQSwitchingOverhead(b *testing.B) {
	fig := benchFigure(b, "2", 200, []float64{0.2, 0.9})
	b.ReportMetric(lastY(fig, "PDQ"), "pdq_afct_ms@90%")
	b.ReportMetric(lastY(fig, "DCTCP"), "dctcp_afct_ms@90%")
}

func BenchmarkFig03ToyExample(b *testing.B) {
	fig := benchFigure(b, "3", 0, nil)
	b.ReportMetric(lastY(fig, "pFabric"), "pfabric_flow3_ms")
	b.ReportMetric(lastY(fig, "PASE"), "pase_flow3_ms")
}

func BenchmarkFig04PFabricLossRate(b *testing.B) {
	fig := benchFigure(b, "4", 200, []float64{0.5, 0.8})
	b.ReportMetric(lastY(fig, "pFabric"), "loss_pct@80%")
}

func BenchmarkFig09aLeftRightAFCT(b *testing.B) {
	fig := benchFigure(b, "9a", 250, []float64{0.5, 0.8})
	b.ReportMetric(lastY(fig, "PASE"), "pase_afct_ms@80%")
	b.ReportMetric(lastY(fig, "L2DCT"), "l2dct_afct_ms@80%")
	b.ReportMetric(lastY(fig, "DCTCP"), "dctcp_afct_ms@80%")
}

// BenchmarkFig09aObsOverhead is BenchmarkFig09aLeftRightAFCT with the
// observability registry enabled; the delta between the two is the
// instrumentation's wall-clock cost (budget: ≤2%).
func BenchmarkFig09aObsOverhead(b *testing.B) {
	var fig *pase.FigureData
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = pase.RunFigure("9a", pase.FigureOpts{
			NumFlows: 250, Seed: 1, Loads: []float64{0.5, 0.8}, Obs: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	snap := fig.Obs
	if snap == nil || len(snap.Counters) == 0 {
		b.Fatal("Obs run produced no snapshot")
	}
	b.ReportMetric(float64(len(snap.Counters)), "counters")
	b.ReportMetric(float64(snap.Counters["sim/events_fired"]), "events_fired")
}

// BenchmarkFig09aCheckOverhead is BenchmarkFig09aLeftRightAFCT with
// the runtime invariant checker enabled; the delta between the two is
// the checking cost when explicitly requested. With the checker off,
// the hot paths pay only nil-pointer tests (budget: ≤2%, same as obs).
func BenchmarkFig09aCheckOverhead(b *testing.B) {
	var fig *pase.FigureData
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = pase.RunFigure("9a", pase.FigureOpts{
			NumFlows: 250, Seed: 1, Loads: []float64{0.5, 0.8}, Check: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	if fig.Violations != 0 {
		b.Fatalf("checker found %d violations", fig.Violations)
	}
	b.ReportMetric(float64(fig.Points), "points_checked")
}

// BenchmarkFig09aTraceOverhead is BenchmarkFig09aLeftRightAFCT with
// the span flight recorder enabled on every point; the delta between
// the two is the full recording cost. With tracing off, the hot paths
// pay only nil-checked hook pointers (budget: ≤2%, same as obs and
// check — BenchmarkFig09aLeftRightAFCT itself measures that disabled
// path).
func BenchmarkFig09aTraceOverhead(b *testing.B) {
	var fig *pase.FigureData
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = pase.RunFigure("9a", pase.FigureOpts{
			NumFlows: 250, Seed: 1, Loads: []float64{0.5, 0.8}, Obs: true, Trace: pase.TraceConfig{Spans: true}})
		if err != nil {
			b.Fatal(err)
		}
	}
	snap := fig.Obs
	if snap == nil || snap.Counters["trace/flows_started"] == 0 {
		b.Fatal("traced run recorded no flows")
	}
	b.ReportMetric(float64(snap.Counters["trace/flows_final"]), "flows_traced")
	b.ReportMetric(float64(snap.Counters["trace/ctrl_spans"]), "ctrl_spans")
}

func BenchmarkFig09bLeftRightCDF(b *testing.B) {
	benchFigure(b, "9b", 250, nil)
}

func BenchmarkFig09cDeadlines(b *testing.B) {
	fig := benchFigure(b, "9c", 200, []float64{0.5, 0.9})
	b.ReportMetric(lastY(fig, "PASE"), "pase_tput@90%")
	b.ReportMetric(lastY(fig, "D2TCP"), "d2tcp_tput@90%")
}

func BenchmarkFig10aLeftRightP99(b *testing.B) {
	fig := benchFigure(b, "10a", 250, []float64{0.5, 0.9})
	b.ReportMetric(lastY(fig, "PASE"), "pase_p99_ms@90%")
	b.ReportMetric(lastY(fig, "pFabric"), "pfabric_p99_ms@90%")
}

func BenchmarkFig10bLeftRightCDF(b *testing.B) {
	benchFigure(b, "10b", 250, nil)
}

func BenchmarkFig10cWorkerAggregator(b *testing.B) {
	fig := benchFigure(b, "10c", 250, []float64{0.5, 0.8})
	b.ReportMetric(lastY(fig, "PASE"), "pase_afct_ms@80%")
	b.ReportMetric(lastY(fig, "pFabric"), "pfabric_afct_ms@80%")
}

func BenchmarkFig11aOptimizationsAFCT(b *testing.B) {
	fig := benchFigure(b, "11a", 200, []float64{0.8})
	b.ReportMetric(lastY(fig, "optimizations"), "afct_improvement_pct@80%")
}

func BenchmarkFig11bOptimizationsOverhead(b *testing.B) {
	fig := benchFigure(b, "11b", 200, []float64{0.8})
	b.ReportMetric(lastY(fig, "optimizations"), "overhead_reduction_pct@80%")
}

func BenchmarkFig12aArbitrationScope(b *testing.B) {
	fig := benchFigure(b, "12a", 250, []float64{0.9})
	b.ReportMetric(lastY(fig, "Arbitration=ON"), "e2e_afct_ms@90%")
	b.ReportMetric(lastY(fig, "Arbitration=OFF"), "local_afct_ms@90%")
}

func BenchmarkFig12bQueueCount(b *testing.B) {
	fig := benchFigure(b, "12b", 200, []float64{0.8})
	b.ReportMetric(lastY(fig, "3 Queues"), "afct_ms_3q@80%")
	b.ReportMetric(lastY(fig, "8 Queues"), "afct_ms_8q@80%")
}

func BenchmarkFig13aReferenceRate(b *testing.B) {
	fig := benchFigure(b, "13a", 200, []float64{0.4})
	b.ReportMetric(lastY(fig, "PASE"), "pase_afct_ms@40%")
	b.ReportMetric(lastY(fig, "PASE-DCTCP"), "pasedctcp_afct_ms@40%")
}

func BenchmarkFig13bTestbed(b *testing.B) {
	fig := benchFigure(b, "13b", 300, []float64{0.5, 0.9})
	b.ReportMetric(lastY(fig, "PASE"), "pase_afct_ms@90%")
	b.ReportMetric(lastY(fig, "DCTCP"), "dctcp_afct_ms@90%")
}

func BenchmarkProbingAblation(b *testing.B) {
	fig := benchFigure(b, "probing", 200, []float64{0.9})
	b.ReportMetric(lastY(fig, "probing on"), "probing_on_afct_ms@90%")
	b.ReportMetric(lastY(fig, "probing off"), "probing_off_afct_ms@90%")
}

// Ablation benches for the design choices DESIGN.md calls out.

func benchPoint(b *testing.B, cfg pase.SimConfig) *pase.Report {
	b.Helper()
	var rep *pase.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = pase.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

func BenchmarkAblationPruning(b *testing.B) {
	on := benchPoint(b, pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: pase.ScenarioLeftRight,
		Load: 0.8, NumFlows: 250, Seed: 1})
	off := benchPoint(b, pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: pase.ScenarioLeftRight,
		Load: 0.8, NumFlows: 250, Seed: 1, PASE: pase.PASEOptions{NoPruning: true}})
	b.ReportMetric(float64(on.CtrlMessages), "msgs_pruning_on")
	b.ReportMetric(float64(off.CtrlMessages), "msgs_pruning_off")
}

func BenchmarkAblationDelegation(b *testing.B) {
	on := benchPoint(b, pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: pase.ScenarioLeftRight,
		Load: 0.8, NumFlows: 250, Seed: 1})
	off := benchPoint(b, pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: pase.ScenarioLeftRight,
		Load: 0.8, NumFlows: 250, Seed: 1, PASE: pase.PASEOptions{NoDelegation: true}})
	b.ReportMetric(float64(on.CtrlMessages), "msgs_delegation_on")
	b.ReportMetric(float64(off.CtrlMessages), "msgs_delegation_off")
}

func BenchmarkAblationQueueCounts(b *testing.B) {
	for _, q := range []int{3, 8} {
		rep := benchPoint(b, pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: pase.ScenarioLeftRight,
			Load: 0.8, NumFlows: 250, Seed: 1, PASE: pase.PASEOptions{NumQueues: q}})
		b.ReportMetric(rep.AFCT.Seconds()*1000, map[int]string{3: "afct_ms_3q", 8: "afct_ms_8q"}[q])
	}
}

// BenchmarkSetup is what a run costs before its first flow: a
// one-flow Simulate is the fabric, the transport stacks and (for the
// PASE rows) the arbitration system, built and torn down. The ctrlscale
// pair is TestSetupScalesWithLinks' measurement as a benchmark line.
func BenchmarkSetup(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  pase.SimConfig
	}{
		{"left-right", pase.SimConfig{Protocol: pase.ProtocolDCTCP, Scenario: pase.ScenarioLeftRight}},
		{"leaf-spine-wide", pase.SimConfig{Protocol: pase.ProtocolDCTCP, Scenario: pase.ScenarioLeafSpineWide}},
		{"ctrlscale-512", pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: "ctrlscale-512"}},
		{"ctrlscale-2048", pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: "ctrlscale-2048"}},
	} {
		b.Run(c.name, func(b *testing.B) {
			c.cfg.Load, c.cfg.NumFlows, c.cfg.Seed = 0.6, 1, 1
			b.ReportAllocs()
			benchPoint(b, c.cfg)
		})
	}
}
