package experiments

import (
	"bufio"
	"fmt"
	"io"
	"slices"

	"pase/internal/faults"
	"pase/internal/metrics"
	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/route"
	"pase/internal/sim"
	"pase/internal/topology"
)

// Opts scales an experiment run: fewer flows for quick looks and
// benchmarks, more for smooth curves.
type Opts struct {
	// NumFlows per point (0 = 2000).
	NumFlows int
	// Seed for workload generation.
	Seed uint64
	// Seeds averages every sweep point over this many consecutive
	// seeds starting at Seed (0 or 1 = single run). CDF figures always
	// use a single seed.
	Seeds int
	// Loads overrides the figure's load sweep when non-empty.
	Loads []float64
	// Parallelism bounds how many simulation points run concurrently
	// (0 = GOMAXPROCS, 1 = serial). Points are hermetic and results
	// are reassembled in input order, so the produced Series are
	// identical at every setting.
	Parallelism int
	// Obs attaches an observability Registry to every point; the
	// merged Snapshot lands in Result.Obs (merged in input order, so
	// it is byte-identical at every Parallelism setting).
	Obs bool
	// Check runs every point with the runtime invariant checker
	// attached; Result.Violations totals the breaches across the grid
	// (and the merged Obs snapshot, when Obs is also set, carries the
	// per-invariant split under check/violations/*).
	Check bool
	// Progress, when set, is called after each simulation point
	// completes, possibly from a worker goroutine — it must be safe
	// for concurrent use.
	Progress func(done, total int)
	// Faults applies a fault-injection plan to every point that does
	// not carry its own. Nil (the default) runs fault-free.
	Faults *faults.Plan
	// Stream runs every point through the bounded-memory streaming
	// path (workload iterator + quantile-sketch collector). Headline
	// sweep metrics (AFCT, app throughput, loss) are identical to
	// stored runs; P50/P99 and CDFs are within SketchEps.
	Stream bool
	// SketchEps overrides the streaming sketch's relative error bound
	// (0 = metrics.DefaultSketchEps).
	SketchEps float64
	// Shards splits every point's fabric across this many
	// independently-clocked engine shards (0 or 1 = serial). Results are
	// byte-identical to serial runs at every setting; points that cannot
	// shard (PASE, PDQ, spill-mode trace writers, single-atom
	// topologies) run on the serial engine and report why in
	// PointResult.ShardFallback. Note the
	// multiplicative core budget with Parallelism: a pooled figure runs
	// up to Parallelism × Shards goroutines at once.
	Shards int
	// Trace applies a trace configuration to every point that does not
	// carry its own. Figure grids keep only scalars per point, so the
	// recorded traces themselves are dropped — but the flight
	// recorder's retention stats (trace/*) and PASE's per-level
	// arbitration RTT histograms (arb/rtt/*) land in the merged Obs
	// snapshot. Spill writers are dropped here: points run
	// concurrently and a single writer cannot be shared.
	Trace TraceConfig
	// Ctrl forces every PASE point onto one control plane: "central"
	// swaps in the single-controller arm, "" (or "hierarchy") keeps
	// the default arbitration hierarchy. The ctrlscale figure, which
	// sweeps both arms itself, reads it as an arm filter.
	Ctrl string
	// Racks caps the ctrlscale figure's rack sweep (0 = the full
	// 16 → 2048 sweep). Other figures ignore it.
	Racks int
}

func (o Opts) seeds() int {
	if o.Seeds < 1 {
		return 1
	}
	return o.Seeds
}

func (o Opts) loads(def []float64) []float64 {
	if len(o.Loads) > 0 {
		return o.Loads
	}
	return def
}

// Series is one curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Result is a regenerated figure: the same series the paper plots.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string

	// Points is how many simulation points produced the figure.
	Points int
	// Retx / Timeouts total the retransmission churn across points.
	Retx     int64
	Timeouts int64
	// Obs is the deterministically merged observability snapshot of
	// every point (nil unless Opts.Obs).
	Obs *obs.Snapshot
	// Violations totals invariant breaches across every point (always
	// 0 unless Opts.Check or PASE_CHECK enabled the checker).
	Violations int64
}

// Figure is a registered experiment. A row's variants (one per
// protocol or PASE arm, on its scenario) each sweep the loads, and the
// seed-averaged metric per point is a curve — or, with cdfLoad set,
// each variant's FCT CDF at that load is. Other figures set compute.
// Rows hold no calls: the table stays static data, so binaries that
// never run a figure do not link the figure code.
type Figure struct {
	ID    string
	Title string // the registry listing's title

	title          string // the regenerated figure's title
	xlabel, ylabel string
	scenario       Scenario
	protos         []Protocol // one variant per protocol, named after it
	arms           []paseArm  // or one PASE variant per arm
	loads          []float64  // load sweep (nil = DefaultLoads; Opts.Loads overrides)
	metric         func(PointResult) float64
	cdfLoad        float64
	seeds          int // fixed seeds per point, overriding Opts.Seeds
	notes          []string
	annotate       func(*Result) // adds notes computed from the series
	compute        func(o Opts) *Result
}

// paseArm is a named PASE ablation variant.
type paseArm struct {
	name string
	opts PASEOptions
}

// variants lists the row's curves: name and point configuration, the
// figure filling in load, seed and flow count.
func (f Figure) variants() ([]string, []PointConfig) {
	var names []string
	var cfgs []PointConfig
	for _, p := range f.protos {
		names = append(names, string(p))
		cfgs = append(cfgs, PointConfig{Protocol: p, Scenario: f.scenario})
	}
	for _, a := range f.arms {
		names = append(names, a.name)
		cfgs = append(cfgs, PointConfig{Protocol: PASE, Scenario: f.scenario, PASE: a.opts})
	}
	return names, cfgs
}

func afctMS(r PointResult) float64      { return r.Summary.AFCT.Millis() }
func p99MS(r PointResult) float64       { return r.Summary.P99.Millis() }
func appTput(r PointResult) float64     { return r.Summary.AppThroughput }
func lossRatePct(r PointResult) float64 { return r.LossRate * 100 }

const (
	loadX     = "Offered load (%)"
	afctY     = "AFCT (ms)"
	deadlineY = "Fraction of deadlines met"
)

// Figures is the per-paper-figure experiment registry.
var Figures = []Figure{
	{ID: "1", Title: "App throughput vs load: self-adjusting endpoints vs pFabric (deadline workload)",
		title: "Application throughput (deadline workload)", xlabel: loadX, ylabel: deadlineY,
		scenario: Deadline, protos: []Protocol{PFabric, D2TCP, DCTCP}, metric: appTput},
	{ID: "2", Title: "AFCT vs load: PDQ vs DCTCP (flow switching overhead)",
		title: "AFCT: PDQ vs DCTCP (intra-rack all-to-all)", xlabel: loadX, ylabel: afctY,
		scenario: IntraRackLarge, protos: []Protocol{PDQ, DCTCP}, metric: afctMS},
	{ID: "3", Title: "Toy example: local prioritization stalls flow 3 (pFabric) vs PASE", compute: fig3},
	{ID: "4", Title: "pFabric loss rate vs load (intra-rack all-to-all)",
		title: "pFabric loss rate", xlabel: loadX, ylabel: "Loss rate (%)",
		scenario: WorkerAgg, protos: []Protocol{PFabric}, loads: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}, metric: lossRatePct},
	{ID: "9a", Title: "AFCT vs load: PASE vs L2DCT vs DCTCP (left-right)",
		title: "AFCT (left-right inter-rack)", xlabel: loadX, ylabel: afctY,
		scenario: LeftRight, protos: []Protocol{PASE, L2DCT, DCTCP}, metric: afctMS},
	{ID: "9b", Title: "FCT CDF at 70% load (left-right): PASE vs L2DCT vs DCTCP",
		title: "FCT CDF at 70% load (left-right)", xlabel: "FCT (ms)", ylabel: "Fraction of flows",
		scenario: LeftRight, protos: []Protocol{PASE, L2DCT, DCTCP}, cdfLoad: 0.7},
	{ID: "9c", Title: "App throughput vs load: PASE vs D2TCP vs DCTCP (deadlines)",
		title: "Application throughput (deadline workload)", xlabel: loadX, ylabel: deadlineY,
		scenario: Deadline, protos: []Protocol{PASE, D2TCP, DCTCP}, metric: appTput},
	{ID: "10a", Title: "99th percentile FCT vs load: PASE vs pFabric (left-right)",
		title: "99th percentile FCT (left-right)", xlabel: loadX, ylabel: "99th-pct FCT (ms)",
		scenario: LeftRight, protos: []Protocol{PASE, PFabric}, metric: p99MS},
	{ID: "10b", Title: "FCT CDF at 70% load (left-right): PASE vs pFabric",
		title: "FCT CDF at 70% load (left-right)", xlabel: "FCT (ms)", ylabel: "Fraction of flows",
		scenario: LeftRight, protos: []Protocol{PASE, PFabric}, cdfLoad: 0.7},
	{ID: "10c", Title: "AFCT vs load: PASE vs pFabric (all-to-all intra-rack)",
		title: "AFCT (all-to-all intra-rack)", xlabel: loadX, ylabel: afctY,
		scenario: WorkerAgg, protos: []Protocol{PASE, PFabric}, metric: afctMS,
		annotate: improvementNote},
	{ID: "11a", Title: "AFCT improvement from arbitration optimizations (left-right)",
		compute: func(o Opts) *Result { return fig11(o, true) }},
	{ID: "11b", Title: "Control overhead reduction from arbitration optimizations (left-right)",
		compute: func(o Opts) *Result { return fig11(o, false) }},
	// Local-only arbitration is bimodal: runs where an overload episode
	// overflows a buffer pay 200 ms recovery tails, others look fine.
	// Three seeds per point show the expected cost rather than one
	// lucky (or unlucky) draw.
	{ID: "12a", Title: "End-to-end vs local-only arbitration (left-right)",
		title: "End-to-end vs local-only arbitration (left-right)", xlabel: loadX, ylabel: afctY,
		scenario: LeftRight, arms: []paseArm{
			{"Arbitration=ON", PASEOptions{}},
			{"Arbitration=OFF", PASEOptions{LocalOnly: true}},
		},
		loads: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}, metric: afctMS, seeds: 3, notes: []string{"each point averages 3 seeds"}},
	{ID: "12b", Title: "AFCT vs number of priority queues (left-right)",
		title: "AFCT vs number of priority queues (left-right)", xlabel: loadX, ylabel: afctY,
		scenario: LeftRight, arms: []paseArm{
			{"3 Queues", PASEOptions{NumQueues: 3}},
			{"4 Queues", PASEOptions{NumQueues: 4}},
			{"6 Queues", PASEOptions{NumQueues: 6}},
			{"8 Queues", PASEOptions{NumQueues: 8}},
		},
		metric: afctMS},
	{ID: "13a", Title: "PASE vs PASE-DCTCP: value of the reference rate (intra-rack)",
		title: "Reference rate ablation (intra-rack, U[100,500] KB)", xlabel: loadX, ylabel: afctY,
		scenario: IntraRackLarge, arms: []paseArm{
			{"PASE", PASEOptions{}},
			{"PASE-DCTCP", PASEOptions{DisableRefRate: true}},
		},
		metric: afctMS},
	{ID: "13b", Title: "Testbed: PASE vs DCTCP AFCT",
		title: "Testbed (simulated): PASE vs DCTCP", xlabel: loadX, ylabel: afctY,
		scenario: Testbed, protos: []Protocol{PASE, DCTCP}, metric: afctMS},
	{ID: "probing", Title: "Probing ablation at high load (intra-rack all-to-all)",
		title: "Probing ablation (intra-rack all-to-all)", xlabel: loadX, ylabel: afctY,
		scenario: WorkerAgg, arms: []paseArm{
			{"probing on", PASEOptions{}},
			{"probing off", PASEOptions{DisableProbing: true}},
		},
		loads: []float64{0.8, 0.9}, metric: afctMS},
	{ID: "task", Title: "Extension: task-aware arbitration (Baraat-style FIFO across tasks, §3.1.1)", compute: figTask},
	// PASE's per-link arbitration composes with per-flow ECMP because
	// the control plane arbitrates exactly the links the flow's hash
	// selects.
	{ID: "leafspine", Title: "Extension: PASE on a multipath leaf-spine fabric with per-flow ECMP",
		title: "Leaf-spine fabric with per-flow ECMP (extension)", xlabel: loadX, ylabel: afctY,
		scenario: LeafSpine, protos: []Protocol{PASE, DCTCP, PFabric}, loads: []float64{0.2, 0.4, 0.6, 0.8}, metric: afctMS},
	{ID: "robust", Title: "Robustness: AFCT vs control-plane failure severity, PASE vs DCTCP baseline", compute: figRobust},
	{ID: "scale", Title: "Extension: streaming million-flow scale sweep (leaf-spine)", compute: figScale},
	{ID: "highspeed", Title: "Extension: ExpressPass vs PASE vs DCTCP on high-speed links", compute: figHighspeed},
	{ID: "te", Title: "Robustness: reactive rerouting + hotspot TE under fabric-link failures (te-failover)", compute: figTE},
	{ID: "ctrlscale", Title: "Extension: control plane at datacenter scale — arbitration hierarchy vs centralized", compute: figCtrlScale},
}

// Lookup returns the figure with the given ID.
func Lookup(id string) (Figure, bool) {
	for _, f := range Figures {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// Run regenerates the figure. A row's (variant × load × seed) grid
// fans out over the point pool in that order; each curve point is the
// mean of its seeds' metric.
func (f Figure) Run(o Opts) *Result {
	if f.compute != nil {
		return f.compute(o)
	}
	loads, seeds := o.loads(f.loads), o.seeds()
	if len(loads) == 0 {
		loads = DefaultLoads
	}
	if f.seeds > 0 {
		seeds = f.seeds
	}
	if f.cdfLoad > 0 {
		loads, seeds = []float64{f.cdfLoad}, 1
	}
	names, vcfgs := f.variants()
	cfgs := make([]PointConfig, 0, len(vcfgs)*len(loads)*seeds)
	for _, v := range vcfgs {
		for _, load := range loads {
			for k := 0; k < seeds; k++ {
				c := v
				c.Load, c.Seed, c.NumFlows = load, o.Seed+uint64(k), o.NumFlows
				cfgs = append(cfgs, c)
			}
		}
	}
	res := &Result{ID: f.ID, Title: f.title, XLabel: f.xlabel, YLabel: f.ylabel,
		Series: make([]Series, len(names)), Notes: slices.Clone(f.notes)}
	var ex *pointExtras
	if f.cdfLoad > 0 {
		ex = newPointExtras(len(cfgs))
		cdfs := make([][]metrics.CDFPoint, len(cfgs))
		forEachPoint(cfgs, o, func(i int, r PointResult) {
			cdfs[i] = r.CDF
			ex.observe(i, r)
		})
		for i, name := range names {
			s := Series{Name: name}
			for _, p := range cdfs[i] {
				s.X = append(s.X, p.Value.Millis())
				s.Y = append(s.Y, p.Fraction)
			}
			res.Series[i] = s
		}
	} else {
		var ys []float64
		ys, ex = mapPoints(cfgs, o, f.metric)
		idx := 0
		for i, name := range names {
			s := Series{Name: name}
			for _, load := range loads {
				var sum float64
				for k := 0; k < seeds; k++ {
					sum += ys[idx]
					idx++
				}
				s.X = append(s.X, load*100)
				s.Y = append(s.Y, sum/float64(seeds))
			}
			res.Series[i] = s
		}
	}
	ex.fill(res)
	if f.annotate != nil {
		f.annotate(res)
	}
	return res
}

// improvementNote annotates figure 10c the way the paper does: the
// per-load % improvement of PASE (series 0) over pFabric (series 1).
func improvementNote(res *Result) {
	var imp []string
	for i := range res.Series[0].X {
		pf, pa := res.Series[1].Y[i], res.Series[0].Y[i]
		if pf > 0 {
			imp = append(imp, fmt.Sprintf("%.0f%%@%g%%", (pf-pa)/pf*100, res.Series[0].X[i]))
		}
	}
	res.Notes = append(res.Notes, "PASE improvement over pFabric: "+fmt.Sprint(imp))
}

func fig11(o Opts, afct bool) *Result {
	// Average a few seeds per point: the high-load AFCT deltas are a
	// few percent, comparable to single-run variance.
	const seeds = 3
	loads := o.loads(DefaultLoads)
	cfgs := make([]PointConfig, 0, 2*seeds*len(loads))
	for _, load := range loads {
		for seed := uint64(0); seed < seeds; seed++ {
			on := PointConfig{Protocol: PASE, Scenario: LeftRight,
				Load: load, Seed: o.Seed + seed, NumFlows: o.NumFlows}
			off := on
			off.PASE = PASEOptions{NoPruning: true, NoDelegation: true}
			cfgs = append(cfgs, on, off)
		}
	}
	type sample struct{ afct, msgs float64 }
	samples := make([]sample, len(cfgs))
	ex := newPointExtras(len(cfgs))
	forEachPoint(cfgs, o, func(i int, r PointResult) {
		samples[i] = sample{float64(r.Summary.AFCT), float64(r.CtrlMessages)}
		ex.observe(i, r)
	})
	var xs, ys []float64
	idx := 0
	for _, load := range loads {
		var onAFCT, offAFCT, onMsgs, offMsgs float64
		for seed := 0; seed < seeds; seed++ {
			onAFCT += samples[idx].afct
			onMsgs += samples[idx].msgs
			offAFCT += samples[idx+1].afct
			offMsgs += samples[idx+1].msgs
			idx += 2
		}
		on, off := onAFCT, offAFCT
		if !afct {
			on, off = onMsgs, offMsgs
		}
		y := 0.0
		if off > 0 {
			y = (off - on) / off * 100
		}
		xs, ys = append(xs, load*100), append(ys, y)
	}
	id, ylabel := "11a", "AFCT improvement (%)"
	if !afct {
		id, ylabel = "11b", "Overhead reduction (%)"
	}
	res := &Result{
		ID: id, Title: "Early pruning + delegation (left-right)",
		XLabel: loadX, YLabel: ylabel,
		Series: []Series{{Name: "optimizations", X: xs, Y: ys}},
	}
	ex.fill(res)
	return res
}

// sameX reports whether every series shares the first one's X grid
// (sweeps do; CDF curves have their own Xs).
func (r *Result) sameX() bool {
	for _, s := range r.Series[1:] {
		if !slices.Equal(s.X, r.Series[0].X) {
			return false
		}
	}
	return true
}

// Render formats a Result as aligned text columns: one row per X
// value, or one block per series when the X grids differ.
func (r *Result) Render() string {
	out := fmt.Sprintf("Figure %s: %s\n", r.ID, r.Title)
	out += fmt.Sprintf("%-14s", r.XLabel)
	for _, s := range r.Series {
		out += fmt.Sprintf(" %16s", s.Name)
	}
	out += fmt.Sprintf("   (%s)\n", r.YLabel)
	if r.sameX() {
		for i := range r.Series[0].X {
			out += fmt.Sprintf("%-14.4g", r.Series[0].X[i])
			for _, s := range r.Series {
				out += fmt.Sprintf(" %16.4g", s.Y[i])
			}
			out += "\n"
		}
	} else {
		for _, s := range r.Series {
			out += fmt.Sprintf("-- %s --\n", s.Name)
			for i := range s.X {
				out += fmt.Sprintf("%-14.4g %16.4g\n", s.X[i], s.Y[i])
			}
		}
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// WriteTSV dumps the figure as tab-separated columns (one X column,
// one column per series). Series with differing X grids (CDFs) are
// emitted as separate blocks. Writes go through a buffer whose first
// error sticks, so the Flush error covers every write.
func (r *Result) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# Figure %s: %s\n", r.ID, r.Title)
	if r.sameX() {
		fmt.Fprintf(bw, "# %s", r.XLabel)
		for _, s := range r.Series {
			fmt.Fprintf(bw, "\t%s", s.Name)
		}
		fmt.Fprintf(bw, "\t(%s)\n", r.YLabel)
		for i := range r.Series[0].X {
			fmt.Fprintf(bw, "%g", r.Series[0].X[i])
			for _, s := range r.Series {
				fmt.Fprintf(bw, "\t%g", s.Y[i])
			}
			fmt.Fprintln(bw)
		}
	} else {
		for _, s := range r.Series {
			fmt.Fprintf(bw, "# %s: %s vs %s\n", s.Name, r.XLabel, r.YLabel)
			for i := range s.X {
				fmt.Fprintf(bw, "%g\t%g\n", s.X[i], s.Y[i])
			}
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(bw, "# note: %s\n", n)
	}
	if r.Points > 0 {
		fmt.Fprintf(bw, "# totals: points=%d retx=%d timeouts=%d\n", r.Points, r.Retx, r.Timeouts)
	}
	return bw.Flush()
}

// figTask exercises the criterion swap §3.1.1 names: arbitrating by
// task id (all responses of one query share a priority; tasks served
// FIFO) versus by remaining flow size, on the worker-aggregator
// workload. The metric is the mean task completion time — the time
// from a query's first response starting to its last finishing.
func figTask(o Opts) *Result {
	loads := o.loads([]float64{0.3, 0.6, 0.9})
	arms := []struct {
		name      string
		taskAware bool
	}{
		{"size-based (SJF)", false},
		{"task-aware (FIFO-LM)", true},
	}
	cfgs := make([]PointConfig, 0, len(arms)*len(loads))
	for _, arm := range arms {
		for _, load := range loads {
			cfgs = append(cfgs, PointConfig{Protocol: PASE, Scenario: WorkerAgg,
				Load: load, Seed: o.Seed, NumFlows: o.NumFlows,
				PASE: PASEOptions{TaskAware: arm.taskAware}})
		}
	}
	type sample struct {
		tctMS      float64
		inversions int
	}
	samples := make([]sample, len(cfgs))
	ex := newPointExtras(len(cfgs))
	forEachPoint(cfgs, o, func(i int, r PointResult) {
		tasks := metrics.Tasks(r.Records)
		samples[i] = sample{metrics.MeanTCT(tasks).Millis(), metrics.TaskOrderInversions(tasks)}
		ex.observe(i, r)
	})
	mk := func(arm int) (Series, []int) {
		s := Series{Name: arms[arm].name}
		var inversions []int
		for j, load := range loads {
			s.X = append(s.X, load*100)
			s.Y = append(s.Y, samples[arm*len(loads)+j].tctMS)
			inversions = append(inversions, samples[arm*len(loads)+j].inversions)
		}
		return s, inversions
	}
	bySize, invSize := mk(0)
	byTask, invTask := mk(1)
	res := &Result{
		ID: "task", Title: "Task-aware vs size-based arbitration (worker-aggregator)",
		XLabel: "Offered load (%)", YLabel: "Mean task completion time (ms)",
		Series: []Series{byTask, bySize},
		Notes: []string{
			fmt.Sprintf("task-order inversions, task-aware: %v", invTask),
			fmt.Sprintf("task-order inversions, size-based: %v", invSize),
		},
	}
	ex.fill(res)
	return res
}

// figScale sweeps the flow count two decades up to one million on the
// leaf-spine fabric, PASE vs DCTCP, with every point on the streaming
// path: arrivals come from the workload iterator, flow state is
// recycled, and FCT quantiles come from the bounded-memory sketch. The
// point of the figure is that the tail (p99) stays flat as the run
// grows — and that the simulator's memory does not grow with it (run
// manifests record peak RSS alongside the curve).
//
// o.NumFlows sets the top of the sweep (default one million); the two
// lower points are top/10 and top/100. o.Loads[0] (default 0.6) fixes
// the offered load.
func figScale(o Opts) *Result {
	top := o.NumFlows
	if top <= 0 {
		top = 1_000_000
	}
	counts := []int{top / 100, top / 10, top}
	for i := range counts {
		if counts[i] < 10 {
			counts[i] = 10
		}
	}
	load := o.loads([]float64{0.6})[0]
	protos := []Protocol{PASE, DCTCP}
	cfgs := make([]PointConfig, 0, len(protos)*len(counts))
	for _, p := range protos {
		for _, n := range counts {
			cfgs = append(cfgs, PointConfig{Protocol: p, Scenario: LeafSpine,
				Load: load, Seed: o.Seed, NumFlows: n,
				Stream: true, SketchEps: o.SketchEps})
		}
	}
	ex := newPointExtras(len(cfgs))
	rs := make([]PointResult, len(cfgs))
	forEachPoint(cfgs, o, func(i int, r PointResult) {
		rs[i] = r
		ex.observe(i, r)
	})
	res := &Result{
		ID: "scale", Title: "Streaming scale sweep (leaf-spine, extension)",
		XLabel: "Flows per point", YLabel: "FCT (ms)",
	}
	idx := 0
	for _, p := range protos {
		afct := Series{Name: string(p) + " AFCT"}
		p99 := Series{Name: string(p) + " p99"}
		for _, n := range counts {
			r := rs[idx]
			idx++
			afct.X = append(afct.X, float64(n))
			afct.Y = append(afct.Y, r.Summary.AFCT.Millis())
			p99.X = append(p99.X, float64(n))
			p99.Y = append(p99.Y, r.Summary.P99.Millis())
		}
		res.Series = append(res.Series, afct, p99)
	}
	ex.fill(res)
	eps := o.SketchEps
	if eps == 0 {
		eps = metrics.DefaultSketchEps
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("offered load %.0f%%; streaming collector, quantile sketch eps=%g", load*100, eps),
		"memory is O(in-flight flows): see the run manifest's peak_rss_bytes")
	return res
}

// figHighspeed compares ExpressPass against PASE and DCTCP as the
// fabric speeds up from 10 to 100 Gbps: AFCT and p99 per link rate,
// the fabric-wide data-queue peak (where credit shaping shows up as a
// near-flat curve while window-based transports fill buffers), and the
// control-plane price of each scheme — ExpressPass credit bytes and
// PASE arbitration bytes on the same ctrl/bytes axis. Two 256→1
// 100 Gbps incast points ride along: with more synchronized senders
// than buffer slots, ExpressPass must stay drop-free on the data plane
// while DCTCP overruns the bottleneck buffer.
//
// o.Loads[0] (default 0.6) fixes the offered load for the rate sweep.
func figHighspeed(o Opts) *Result {
	load := o.loads([]float64{0.6})[0]
	rates := []struct {
		gbps float64
		s    Scenario
	}{{10, Highspeed10}, {40, Highspeed40}, {100, Highspeed100}}
	protos := []Protocol{ExpressPass, PASE, DCTCP}
	cfgs := make([]PointConfig, 0, len(protos)*len(rates)+2)
	for _, p := range protos {
		for _, r := range rates {
			// Obs per point: the control-overhead note reads each
			// protocol's ctrl/bytes counter from its own snapshot.
			cfgs = append(cfgs, PointConfig{Protocol: p, Scenario: r.s,
				Load: load, Seed: o.Seed, NumFlows: o.NumFlows, Obs: true})
		}
	}
	// The incast points run at a fixed 70% load — the same operating
	// point the incast regression test pins, where DCTCP's 256
	// synchronized senders demonstrably overrun the bottleneck buffer.
	const incastLoad = 0.7
	incastAt := len(cfgs)
	for _, p := range []Protocol{ExpressPass, DCTCP} {
		cfgs = append(cfgs, PointConfig{Protocol: p, Scenario: Incast256,
			Load: incastLoad, Seed: o.Seed, NumFlows: o.NumFlows})
	}
	ex := newPointExtras(len(cfgs))
	rs := make([]PointResult, len(cfgs))
	forEachPoint(cfgs, o, func(i int, r PointResult) {
		rs[i] = r
		ex.observe(i, r)
	})
	res := &Result{
		ID: "highspeed", Title: "High-speed links: ExpressPass vs PASE vs DCTCP (extension)",
		XLabel: "Link rate (Gbps)", YLabel: "FCT (ms) / queue peak (pkts)",
	}
	idx := 0
	for _, p := range protos {
		afct := Series{Name: string(p) + " AFCT"}
		p99 := Series{Name: string(p) + " p99"}
		peak := Series{Name: string(p) + " queue peak"}
		var ctrlBytes, ctrlMsgs int64
		for _, rate := range rates {
			r := rs[idx]
			idx++
			afct.X = append(afct.X, rate.gbps)
			afct.Y = append(afct.Y, r.Summary.AFCT.Millis())
			p99.X = append(p99.X, rate.gbps)
			p99.Y = append(p99.Y, r.Summary.P99.Millis())
			peak.X = append(peak.X, rate.gbps)
			peak.Y = append(peak.Y, float64(r.Queues.MaxLen))
			if rate.s == Highspeed100 {
				ctrlMsgs = r.CtrlMessages
				if r.Obs != nil {
					ctrlBytes = r.Obs.Counters["ctrl/bytes"]
				}
			}
		}
		res.Series = append(res.Series, afct, p99, peak)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s control overhead at 100 Gbps: %d messages, %d bytes (ctrl/bytes)",
			p, ctrlMsgs, ctrlBytes))
	}
	ep, dc := rs[incastAt], rs[incastAt+1]
	res.Notes = append(res.Notes,
		fmt.Sprintf("256→1 incast at 100 Gbps, %.0f%% load: ExpressPass dropped %d data pkts (queue peak %d), DCTCP dropped %d (queue peak %d)",
			incastLoad*100, ep.Queues.DroppedData, ep.Queues.MaxLen, dc.Queues.DroppedData, dc.Queues.MaxLen),
		fmt.Sprintf("rate sweep at %.0f%% offered load; credit shaping keeps the data queue bounded with no data-plane drops", load*100))
	ex.fill(res)
	return res
}

// figCtrlScale sweeps the ctrlscale fabric from 16 to 2048 racks with
// the same fixed aggregate workload and puts PASE's two control
// planes side by side: the deep arbitration hierarchy (fan-out-4
// virtual aggregation tree, sharded root, delegation + early pruning)
// against the fully centralized single-controller arm. Per rack count
// and arm it reports AFCT and total control bytes; the notes quantify
// the scaling claim — hierarchy control traffic grows sub-linearly in
// rack count (pruning resolves most refreshes low in the tree) while
// the centralized arm's per-epoch link-state sync grows with the
// fabric — plus delegation/pruning effectiveness and the controller's
// queueing delay.
//
// o.Loads[0] (default 0.6) fixes the offered load; o.Racks caps the
// sweep (the ctrlscale-smoke target runs a single 512-rack point).
func figCtrlScale(o Opts) *Result {
	// The figure defines both arms itself; a grid-level -ctrl override
	// would corrupt the hierarchy arm. Honour it here as an arm filter
	// instead.
	armFilter := o.Ctrl
	o.Ctrl = ""
	load := o.loads([]float64{0.6})[0]
	flows := o.NumFlows
	if flows <= 0 {
		flows = 400
	}
	rackCounts := []int{16, 64, 256, 1024, 2048}
	if o.Racks > 0 {
		kept := rackCounts[:0]
		for _, rc := range rackCounts {
			if rc <= o.Racks {
				kept = append(kept, rc)
			}
		}
		if len(kept) == 0 || kept[len(kept)-1] != o.Racks {
			kept = append(kept, o.Racks)
		}
		rackCounts = kept
	}
	arms := []struct {
		name string
		opt  PASEOptions
	}{
		{"hierarchy", PASEOptions{}},
		{"central", PASEOptions{Central: true}},
	}
	if armFilter != "" {
		kept := arms[:0]
		for _, a := range arms {
			if a.name == armFilter {
				kept = append(kept, a)
			}
		}
		if len(kept) > 0 {
			arms = kept
		}
	}
	cfgs := make([]PointConfig, 0, len(arms)*len(rackCounts))
	for _, a := range arms {
		for _, rc := range rackCounts {
			// Obs per point: the control-cost series and the
			// effectiveness notes read each point's own counters.
			cfgs = append(cfgs, PointConfig{Protocol: PASE,
				Scenario: Scenario(fmt.Sprintf("%s-%d", CtrlScale, rc)),
				Load:     load, Seed: o.Seed, NumFlows: flows, Obs: true,
				PASE: a.opt})
		}
	}
	ex := newPointExtras(len(cfgs))
	rs := make([]PointResult, len(cfgs))
	forEachPoint(cfgs, o, func(i int, r PointResult) {
		rs[i] = r
		ex.observe(i, r)
	})
	res := &Result{
		ID: "ctrlscale", Title: "Control plane at datacenter scale: hierarchy vs centralized (extension)",
		XLabel: "Racks", YLabel: "AFCT (ms) / ctrl MB",
	}
	ctr := func(r PointResult, name string) int64 {
		if r.Obs == nil {
			return 0
		}
		return r.Obs.Counters[name]
	}
	idx := 0
	for _, a := range arms {
		afct := Series{Name: a.name + " AFCT"}
		ctrl := Series{Name: a.name + " ctrl MB"}
		var first, last PointResult
		for j, rc := range rackCounts {
			r := rs[idx]
			idx++
			afct.X = append(afct.X, float64(rc))
			afct.Y = append(afct.Y, r.Summary.AFCT.Millis())
			ctrl.X = append(ctrl.X, float64(rc))
			ctrl.Y = append(ctrl.Y, float64(ctr(r, "ctrl/bytes"))/1e6)
			if j == 0 {
				first = r
			}
			last = r
		}
		res.Series = append(res.Series, afct, ctrl)
		growth := 0.0
		if b := ctr(first, "ctrl/bytes"); b > 0 {
			growth = float64(ctr(last, "ctrl/bytes")) / float64(b)
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: ctrl bytes ×%.2f as racks ×%d (%d → %d messages)",
			a.name, growth, rackCounts[len(rackCounts)-1]/rackCounts[0],
			rs[idx-len(rackCounts)].CtrlMessages, last.CtrlMessages))
		if a.name == "hierarchy" {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"hierarchy at %d racks: %d refreshes pruned early (saving %d messages), %d delegated-slice stops",
				rackCounts[len(rackCounts)-1], ctr(last, "arb/pruned"),
				ctr(last, "arb/prune_saved_msgs"), ctr(last, "arb/delegated")))
		} else if last.Obs != nil {
			q := last.Obs.Histograms["arb/central/queue_ns"]
			mean := int64(0)
			if q.Count > 0 {
				mean = q.Sum / q.Count
			}
			res.Notes = append(res.Notes, fmt.Sprintf(
				"central at %d racks: %d sync messages, mean controller queueing %d ns",
				rackCounts[len(rackCounts)-1], ctr(last, "arb/sync_messages"), mean))
		}
	}
	ex.fill(res)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"fixed %v aggregate workload at %.0f%% load, %d flows per point; per-level message counts and RTTs: arb/msgs/level* and arb/rtt/level* in the run manifest",
		netem.BitRate(CtrlScaleReference), load*100, flows))
	return res
}

// teUplinkChaos downs the first k leaf→spine-0 uplinks, staggered
// TEFaultStagger apart so no two rules fire at one instant and none
// lands on a TE-epoch multiple — same-instant fault rules on
// different shards would race for rank order in sharded runs.
func teUplinkChaos(ls topology.LeafSpineConfig, k int, seed uint64) *faults.Plan {
	if k <= 0 {
		return nil
	}
	pl := &faults.Plan{Seed: seed}
	for r := 0; r < k; r++ {
		pl.Links = append(pl.Links, faults.LinkFault{
			Link: ls.UplinkID(r, 0),
			At:   TEFaultStart + sim.Duration(r)*TEFaultStagger,
			For:  TEFaultFor,
		})
	}
	return pl
}

// figTE is the routing-control-loop experiment on the te-failover
// fabric (4 leaves × 3 spines): a chaos plan downs the leaf→spine-0
// uplinks one by one and the arms differ only in who reacts. PASE+TE
// runs the reactive reroute + hotspot-TE control loop, which rehashes
// the dead spine's ECMP buckets onto the survivors within a link
// delay; PASE and DCTCP leave routing frozen at the build-time ECMP
// hash, so the flows hashed onto spine 0 blackhole until the progress
// deadline aborts them. X is how many of the four uplinks fail, Y the
// fraction of foreground flows completing; the notes carry the AFCT
// cost of surviving the failure (vs fault-free) per arm.
func figTE(o Opts) *Result {
	const load = 0.6
	ls := teFailoverLS()
	arms := []struct {
		name string
		p    Protocol
		rt   route.Config
	}{
		{"PASE+TE", PASE, route.Config{Reroute: true, TE: true}},
		{"PASE", PASE, route.Config{}},
		{"DCTCP", DCTCP, route.Config{}},
	}
	ks := []int{0, 1, 2, 3, 4}
	cfgs := make([]PointConfig, 0, len(arms)*len(ks))
	for _, arm := range arms {
		for _, k := range ks {
			cfgs = append(cfgs, PointConfig{Protocol: arm.p, Scenario: TEFailover,
				Load: load, Seed: o.Seed, NumFlows: o.NumFlows,
				Route: arm.rt, AbortAfter: TEAbortAfter,
				Faults: teUplinkChaos(ls, k, o.Seed)})
		}
	}
	ex := newPointExtras(len(cfgs))
	rs := make([]PointResult, len(cfgs))
	forEachPoint(cfgs, o, func(i int, r PointResult) {
		rs[i] = r
		ex.observe(i, r)
	})
	res := &Result{
		ID: "te", Title: "Reactive rerouting + hotspot TE under uplink failures (te-failover)",
		XLabel: "Failed leaf→spine-0 uplinks", YLabel: "Fraction of flows completing",
	}
	idx := 0
	for _, arm := range arms {
		s := Series{Name: arm.name}
		var cleanAFCT, failAFCT float64
		var aborted int
		for _, k := range ks {
			r := rs[idx]
			idx++
			surv := 0.0
			if r.Summary.Flows > 0 {
				surv = float64(r.Summary.Completed) / float64(r.Summary.Flows)
			}
			s.X = append(s.X, float64(k))
			s.Y = append(s.Y, surv)
			switch k {
			case 0:
				cleanAFCT = r.Summary.AFCT.Millis()
			case ks[len(ks)-1]:
				failAFCT = r.Summary.AFCT.Millis()
				aborted = r.Summary.Aborted
			}
		}
		res.Series = append(res.Series, s)
		ratio := 0.0
		if cleanAFCT > 0 {
			ratio = failAFCT / cleanAFCT
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: AFCT %.3f ms fault-free → %.3f ms with all four uplinks down (%.2fx), %d flows aborted",
			arm.name, cleanAFCT, failAFCT, ratio, aborted))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"uplinks fail at %v + k·%v for %v each; progress deadline %v; offered load %.0f%%",
		TEFaultStart.Std(), TEFaultStagger.Std(), TEFaultFor.Std(), TEAbortAfter.Std(), load*100))
	ex.fill(res)
	return res
}

// fig3 is the toy example of Figure 3: three flows, two links.
// Flow 1 (src1→dst1) is most urgent, flow 2 (src2→dst1) medium,
// flow 3 (src2→dst2) least. Flows 1 and 2 share dst1's downlink;
// flows 2 and 3 share src2's uplink. pFabric keeps transmitting
// flow 2 on the shared uplink only to have the packets die at the
// downlink, stalling flow 3; PASE's end-to-end arbitration throttles
// flow 2 at the source so flow 3 runs alongside flow 1.
func fig3(o Opts) *Result {
	res := &Result{
		ID: "3", Title: "Toy example: flow 3 stall",
		XLabel: "flow #", YLabel: "FCT (ms)",
	}
	for _, p := range []Protocol{PFabric, PASE} {
		fcts := RunToy(p)
		s := Series{Name: string(p)}
		for i, f := range fcts {
			s.X = append(s.X, float64(i+1))
			s.Y = append(s.Y, f.Millis())
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"flow sizes 0.5/0.75/1.0 MB; flows 1 and 3 share no link and could run in parallel")
	return res
}

// figRobust is the robustness experiment added with the fault-injection
// subsystem: AFCT at a fixed 70% left-right load as the control plane
// degrades. Two failure axes share the X axis (severity in percent):
// the fraction of arbitration requests/responses dropped, and the
// fraction of each 10 ms window the arbitrators spend crashed. A
// fault-free DCTCP run provides the floor — PASE endpoints fall back to
// DCTCP-mode when the control plane goes quiet, so the curves should
// degrade toward (not through) that baseline.
func figRobust(o Opts) *Result {
	const seeds = 3
	const load = 0.7
	const crashPeriod = 10 * sim.Millisecond
	rates := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95}

	base := func(seed uint64) PointConfig {
		return PointConfig{Protocol: PASE, Scenario: LeftRight,
			Load: load, Seed: o.Seed + seed, NumFlows: o.NumFlows}
	}
	var cfgs []PointConfig
	// Arm 1: control-plane message loss.
	for _, r := range rates {
		for seed := uint64(0); seed < seeds; seed++ {
			cfg := base(seed)
			if r > 0 {
				cfg.Faults = &faults.Plan{Seed: o.Seed,
					Ctrl: []faults.CtrlFault{{Drop: r}}}
			}
			cfgs = append(cfgs, cfg)
		}
	}
	// Arm 2: periodic arbitrator crashes; severity = fraction of each
	// period the arbitrators are down (soft state wiped every cycle).
	for _, r := range rates {
		for seed := uint64(0); seed < seeds; seed++ {
			cfg := base(seed)
			if r > 0 {
				cfg.Faults = &faults.Plan{Seed: o.Seed,
					Crashes: []faults.CrashFault{{Link: -1, At: crashPeriod,
						For: sim.Duration(r * float64(crashPeriod)), Every: crashPeriod}}}
			}
			cfgs = append(cfgs, cfg)
		}
	}
	// Baseline: DCTCP never consults the control plane, so one fault-free
	// run per seed is replicated across the axis.
	for seed := uint64(0); seed < seeds; seed++ {
		cfg := base(seed)
		cfg.Protocol = DCTCP
		cfgs = append(cfgs, cfg)
	}

	ys, ex := mapPoints(cfgs, o, afctMS)
	avg := func(idx int) float64 {
		var sum float64
		for s := 0; s < seeds; s++ {
			sum += ys[idx+s]
		}
		return sum / seeds
	}
	xs := make([]float64, len(rates))
	for i, r := range rates {
		xs[i] = r * 100
	}
	series := []Series{
		{Name: "PASE (ctrl loss)", X: xs},
		{Name: "PASE (arb downtime)", X: xs},
		{Name: "DCTCP (no faults)", X: xs},
	}
	for i := range rates {
		series[0].Y = append(series[0].Y, avg(i*seeds))
		series[1].Y = append(series[1].Y, avg((len(rates)+i)*seeds))
	}
	dctcp := avg(2 * len(rates) * seeds)
	for range rates {
		series[2].Y = append(series[2].Y, dctcp)
	}
	res := &Result{
		ID: "robust", Title: "Graceful degradation under control-plane faults (left-right, 70% load)",
		XLabel: "Failure severity (%)", YLabel: "AFCT (ms)",
		Series: series,
		Notes: []string{
			fmt.Sprintf("each point averages %d seeds", seeds),
			"ctrl loss: fraction of arbitration requests/responses dropped",
			fmt.Sprintf("arb downtime: fraction of each %v window all arbitrators are crashed", crashPeriod.Std()),
		},
	}
	ex.fill(res)
	return res
}
