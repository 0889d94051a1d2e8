package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"pase/internal/faults"
	"pase/internal/metrics"
	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/route"
	"pase/internal/sim"
	"pase/internal/topology"
)

// Opts scales an experiment run: fewer flows for quick looks and
// benchmarks, more for smooth curves. Its json tags pick the fields a
// run manifest records as its params.
type Opts struct {
	// NumFlows per point (0 = 2000). Per-flow figures (3) run their
	// scenario's own flows and ignore it.
	NumFlows int `json:"num_flows,omitempty"`
	// Seed for workload generation.
	Seed uint64 `json:"seed"`
	// Seeds averages every figure point over this many consecutive
	// seeds starting at Seed (0 or 1 = single run). Figures that fix
	// their seeds (11a, 11b, 12a and robust average three), CDF figures
	// and per-flow figures (one) ignore it.
	Seeds int `json:"seeds,omitempty"`
	// Loads overrides the figure's load sweep when non-empty; a figure
	// sweeping another axis runs at Loads[0] unless it fixes its load.
	// Per-flow figures ignore it.
	Loads []float64 `json:"loads,omitempty"`
	// Parallelism bounds how many simulation points run concurrently
	// (0 = GOMAXPROCS, 1 = serial). Points are hermetic and results
	// are reassembled in input order, so the produced Series are
	// identical at every setting.
	Parallelism int `json:"parallelism,omitempty"`
	// Obs attaches an observability Registry to every point; the
	// merged Snapshot lands in Result.Obs (merged in input order, so
	// it is byte-identical at every Parallelism setting).
	Obs bool `json:"-"`
	// Check runs every point with the runtime invariant checker
	// attached; Result.Violations totals the breaches across the grid
	// (and the merged Obs snapshot, when Obs is also set, carries the
	// per-invariant split under check/violations/*).
	Check bool `json:"-"`
	// Progress, when set, is called after each simulation point
	// completes, possibly from a worker goroutine — it must be safe
	// for concurrent use.
	Progress func(done, total int) `json:"-"`
	// Faults applies a fault-injection plan to every point that does
	// not carry its own. Nil (the default) runs fault-free.
	Faults *faults.Plan `json:"faults,omitempty"`
	// Stream runs every point through the bounded-memory streaming
	// path (workload iterator + quantile-sketch collector). Headline
	// sweep metrics (AFCT, app throughput, loss) are identical to
	// stored runs; P50/P99 and CDFs are within the sketch's
	// metrics.DefaultSketchEps. Figures that read Records (per-flow
	// figures and the task figure) reject it.
	Stream bool `json:"stream,omitempty"`
	// Shards splits every point's fabric across this many
	// independently-clocked engine shards (0 or 1 = serial). Results are
	// byte-identical to serial runs at every setting; points that cannot
	// shard (PASE, PDQ, traced, faulted or routed runs, single-atom
	// topologies) run on the serial engine and report why in
	// PointResult.ShardFallback. Note the
	// multiplicative core budget with Parallelism: a pooled figure runs
	// up to Parallelism × Shards goroutines at once.
	Shards int `json:"shards,omitempty"`
	// Trace applies a trace configuration to every point that does not
	// carry its own. Figure grids keep only scalars per point, so the
	// recorded traces themselves are dropped — but the flight
	// recorder's retention stats (trace/*) and PASE's per-level
	// arbitration RTT histograms (arb/rtt/*) land in the merged Obs
	// snapshot. Spill writers are dropped here: points run
	// concurrently and a single writer cannot be shared.
	Trace TraceConfig `json:"-"`
	// Ctrl forces every PASE point onto one control plane: "central"
	// swaps in the single-controller arm, "" (or "hierarchy") keeps
	// the default arbitration hierarchy. The ctrlscale figure, which
	// sweeps both arms itself, reads it as an arm filter.
	Ctrl string `json:"-"`
	// Racks caps the ctrlscale figure's rack sweep (0 = the full
	// 16 → 2048 sweep; negative is an error at pase.RunFigure). Other
	// figures ignore it.
	Racks int `json:"-"`
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

	// Points is how many simulation points produced the figure, and
	// MinFlows / MaxFlows the fewest and most foreground flows one of
	// them ran.
	Points             int
	MinFlows, MaxFlows int
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

// Figure is a registered experiment. A row's arms each sweep its axis;
// every metric it names is averaged over seeds per (arm, x), and each
// plotted metric of each arm is a curve — or, with cdfLoad set, each
// arm's FCT CDF at that load is, and with perFlow set each arm's FCT
// per flow ID, both from one point per arm. Rows hold no calls: the
// table stays static data, so binaries that never run a figure do not
// link the figure code.
type Figure struct {
	ID    string
	Title string // the registry listing's title

	title          string // the regenerated figure's title
	xlabel, ylabel string
	scenario       Scenario
	protos         []Protocol // one arm per protocol, named after it
	arms           []arm
	axis           axis
	xs             []float64 // the axis's values (load: nil = DefaultLoads; Opts.Loads overrides)
	flows          int       // flows per point when Opts.NumFlows is 0 (0 = RunPoint's default)
	metrics        []metric
	cdfLoad        float64
	perFlow        bool
	seeds          int // fixed seeds per point, overriding Opts.Seeds
	notes          []string
	annotate       func(*Result, cells) // adds notes computed from the grid
}

// axis is the quantity a row sweeps. A non-load axis runs at the
// offered load Opts.Loads[0] (default 0.6) unless an arm fixes its own.
type axis uint8

const (
	load          axis = iota // offered load, plotted in %
	flows                     // flows per point: x is a fraction of the row's flow count, at least 10
	linkRate                  // the highspeed-<x> fabric, x in Gbps
	racks                     // the ctrlscale-<x> fabric; Opts.Racks caps the sweep
	failedUplinks             // x leaf→spine-0 uplinks fail, under the TE progress deadline
	ctrlLoss                  // a fraction x of arbitration messages is dropped, plotted in %
	arbDown                   // arbitrators are down a fraction x of each crash period, plotted in %
)

// arm is a named partial PointConfig: protocol (default PASE),
// PASEOptions, route config and any field it fixes against the row,
// such as its scenario or load. An arm may sweep its own axis; an arm
// the axis does not touch runs once per seed and is replicated across
// x. A note arm only feeds annotate.
type arm struct {
	name string
	cfg  PointConfig
	axis axis // 0 = the row's
	note bool
}

// metric is one scalar read off every point: of(r), or the point's obs
// counter when counter is set. A note metric only feeds annotate; a
// records metric reads the per-flow records a streamed run does not keep.
type metric struct {
	name    string
	of      func(PointResult) float64
	counter string
	note    bool
	records bool
}

func (m metric) value(r PointResult) float64 {
	if m.counter == "" {
		return m.of(r)
	}
	if r.Obs == nil {
		return 0
	}
	return float64(r.Obs.Counters[m.counter])
}

// cells is what annotate reads: the arms that ran, the plotted xs, the
// fixed load and flow count, and per (arm, x) the seed sums of every
// metric the row names.
type cells struct {
	arms    []arm
	xs      []float64
	load    float64
	flows   int
	seeds   int
	metrics []metric
	sums    [][][]float64 // [arm][x][metric]
}

func (c cells) mean(a, j int, name string) float64 {
	return c.sums[a][j][slices.IndexFunc(c.metrics, func(m metric) bool { return m.name == name })] / float64(c.seeds)
}

func afctMS(r PointResult) float64      { return r.AFCT.Millis() }
func afctNS(r PointResult) float64      { return float64(r.AFCT) }
func p99MS(r PointResult) float64       { return r.P99.Millis() }
func appTput(r PointResult) float64     { return r.AppThroughput }
func lossRatePct(r PointResult) float64 { return r.LossRate * 100 }
func ctrlMsgs(r PointResult) float64    { return float64(r.CtrlMessages) }
func queuePeak(r PointResult) float64   { return float64(r.Queues.MaxLen) }
func droppedData(r PointResult) float64 { return float64(r.Queues.DroppedData) }
func aborted(r PointResult) float64     { return float64(r.Aborted) }
func ctrlMB(r PointResult) float64      { return metric{counter: "ctrl/bytes"}.value(r) / 1e6 }
func survival(r PointResult) float64 {
	return float64(r.Completed) / float64(max(r.Flows, 1))
}

// meanTCT runs from a query's first response starting to its last
// finishing; taskInversions counts task pairs finished out of arrival
// order.
func meanTCT(r PointResult) float64 { return metrics.MeanTCT(metrics.Tasks(r.Records)).Millis() }
func taskInversions(r PointResult) float64 {
	return float64(metrics.TaskOrderInversions(metrics.Tasks(r.Records)))
}

func centralQueueNS(r PointResult) float64 {
	if r.Obs == nil || r.Obs.Histograms["arb/central/queue_ns"].Count == 0 {
		return 0
	}
	q := r.Obs.Histograms["arb/central/queue_ns"]
	return float64(q.Sum / q.Count)
}

const (
	loadX     = "Offered load (%)"
	afctY     = "AFCT (ms)"
	deadlineY = "Fraction of deadlines met"
	// incastLoad is highspeed's incast operating point, the one the
	// incast regression test pins: DCTCP's 256 synchronized senders
	// overrun the bottleneck buffer there.
	incastLoad = 0.7
)

var (
	afct    = []metric{{name: "AFCT", of: afctMS}}
	pruning = []arm{
		{name: "on"},
		{name: "off", cfg: PointConfig{PASE: PASEOptions{NoPruning: true, NoDelegation: true}}},
	}
)

// Figures is the per-paper-figure experiment registry.
var Figures = []Figure{
	{ID: "1", Title: "App throughput vs load: self-adjusting endpoints vs pFabric (deadline workload)",
		title: "Application throughput (deadline workload)", xlabel: loadX, ylabel: deadlineY,
		scenario: Deadline, protos: []Protocol{PFabric, D2TCP, DCTCP}, metrics: []metric{{name: "app throughput", of: appTput}}},
	{ID: "2", Title: "AFCT vs load: PDQ vs DCTCP (flow switching overhead)",
		title: "AFCT: PDQ vs DCTCP (intra-rack all-to-all)", xlabel: loadX, ylabel: afctY,
		scenario: IntraRackLarge, protos: []Protocol{PDQ, DCTCP}, metrics: afct},
	// pFabric keeps sending flow 2 on the uplink it shares with flow 3,
	// only for those packets to die at dst1's downlink; PASE's end-to-end
	// arbitration throttles flow 2 at the source, so flow 3 runs beside flow 1.
	{ID: "3", Title: "Toy example: local prioritization stalls flow 3 (pFabric) vs PASE",
		title: "Toy example: flow 3 stall", xlabel: "flow #", ylabel: "FCT (ms)",
		scenario: toy, protos: []Protocol{PFabric, PASE}, perFlow: true,
		notes: []string{"flow sizes 0.5/0.75/1.0 MB; flows 1 and 3 share no link and could run in parallel"}},
	{ID: "4", Title: "pFabric loss rate vs load (intra-rack all-to-all)",
		title: "pFabric loss rate", xlabel: loadX, ylabel: "Loss rate (%)",
		scenario: WorkerAgg, protos: []Protocol{PFabric}, xs: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95},
		metrics: []metric{{name: "loss", of: lossRatePct}}},
	{ID: "9a", Title: "AFCT vs load: PASE vs L2DCT vs DCTCP (left-right)",
		title: "AFCT (left-right inter-rack)", xlabel: loadX, ylabel: afctY,
		scenario: LeftRight, protos: []Protocol{PASE, L2DCT, DCTCP}, metrics: afct},
	{ID: "9b", Title: "FCT CDF at 70% load (left-right): PASE vs L2DCT vs DCTCP",
		title: "FCT CDF at 70% load (left-right)", xlabel: "FCT (ms)", ylabel: "Fraction of flows",
		scenario: LeftRight, protos: []Protocol{PASE, L2DCT, DCTCP}, cdfLoad: 0.7},
	{ID: "9c", Title: "App throughput vs load: PASE vs D2TCP vs DCTCP (deadlines)",
		title: "Application throughput (deadline workload)", xlabel: loadX, ylabel: deadlineY,
		scenario: Deadline, protos: []Protocol{PASE, D2TCP, DCTCP}, metrics: []metric{{name: "app throughput", of: appTput}}},
	{ID: "10a", Title: "99th percentile FCT vs load: PASE vs pFabric (left-right)",
		title: "99th percentile FCT (left-right)", xlabel: loadX, ylabel: "99th-pct FCT (ms)",
		scenario: LeftRight, protos: []Protocol{PASE, PFabric}, metrics: []metric{{name: "p99", of: p99MS}}},
	{ID: "10b", Title: "FCT CDF at 70% load (left-right): PASE vs pFabric",
		title: "FCT CDF at 70% load (left-right)", xlabel: "FCT (ms)", ylabel: "Fraction of flows",
		scenario: LeftRight, protos: []Protocol{PASE, PFabric}, cdfLoad: 0.7},
	{ID: "10c", Title: "AFCT vs load: PASE vs pFabric (all-to-all intra-rack)",
		title: "AFCT (all-to-all intra-rack)", xlabel: loadX, ylabel: afctY,
		scenario: WorkerAgg, protos: []Protocol{PASE, PFabric}, metrics: afct, annotate: improvementNote},
	// 11a/11b average three seeds per point: the high-load AFCT deltas
	// are a few percent, comparable to single-run variance.
	{ID: "11a", Title: "AFCT improvement from arbitration optimizations (left-right)",
		title: "Early pruning + delegation (left-right)", xlabel: loadX, ylabel: "AFCT improvement (%)",
		scenario: LeftRight, arms: pruning, seeds: 3,
		metrics: []metric{{name: "AFCT", of: afctNS, note: true}}, annotate: optimizations},
	{ID: "11b", Title: "Control overhead reduction from arbitration optimizations (left-right)",
		title: "Early pruning + delegation (left-right)", xlabel: loadX, ylabel: "Overhead reduction (%)",
		scenario: LeftRight, arms: pruning, seeds: 3,
		metrics: []metric{{name: "messages", of: ctrlMsgs, note: true}}, annotate: optimizations},
	// Local-only arbitration is bimodal (an overflowing overload episode
	// pays 200 ms recovery tails): three seeds show the expected cost.
	{ID: "12a", Title: "End-to-end vs local-only arbitration (left-right)",
		title: "End-to-end vs local-only arbitration (left-right)", xlabel: loadX, ylabel: afctY,
		scenario: LeftRight, arms: []arm{
			{name: "Arbitration=ON"},
			{name: "Arbitration=OFF", cfg: PointConfig{PASE: PASEOptions{LocalOnly: true}}},
		},
		xs: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}, metrics: afct, seeds: 3, notes: []string{"each point averages 3 seeds"}},
	{ID: "12b", Title: "AFCT vs number of priority queues (left-right)",
		title: "AFCT vs number of priority queues (left-right)", xlabel: loadX, ylabel: afctY,
		scenario: LeftRight, arms: []arm{
			{name: "3 Queues", cfg: PointConfig{PASE: PASEOptions{NumQueues: 3}}},
			{name: "4 Queues", cfg: PointConfig{PASE: PASEOptions{NumQueues: 4}}},
			{name: "6 Queues", cfg: PointConfig{PASE: PASEOptions{NumQueues: 6}}},
			{name: "8 Queues", cfg: PointConfig{PASE: PASEOptions{NumQueues: 8}}},
		},
		metrics: afct},
	{ID: "13a", Title: "PASE vs PASE-DCTCP: value of the reference rate (intra-rack)",
		title: "Reference rate ablation (intra-rack, U[100,500] KB)", xlabel: loadX, ylabel: afctY,
		scenario: IntraRackLarge, arms: []arm{
			{name: "PASE"},
			{name: "PASE-DCTCP", cfg: PointConfig{PASE: PASEOptions{DisableRefRate: true}}},
		},
		metrics: afct},
	{ID: "13b", Title: "Testbed: PASE vs DCTCP AFCT",
		title: "Testbed (simulated): PASE vs DCTCP", xlabel: loadX, ylabel: afctY,
		scenario: Testbed, protos: []Protocol{PASE, DCTCP}, metrics: afct},
	{ID: "probing", Title: "Probing ablation at high load (intra-rack all-to-all)",
		title: "Probing ablation (intra-rack all-to-all)", xlabel: loadX, ylabel: afctY,
		scenario: WorkerAgg, arms: []arm{
			{name: "probing on"},
			{name: "probing off", cfg: PointConfig{PASE: PASEOptions{DisableProbing: true}}},
		},
		xs: []float64{0.8, 0.9}, metrics: afct},
	// §3.1.1's criterion swap: arbitrate by task id (a query's
	// responses share a priority, tasks go FIFO) or by flow size.
	{ID: "task", Title: "Extension: task-aware arbitration (Baraat-style FIFO across tasks, §3.1.1)",
		title: "Task-aware vs size-based arbitration (worker-aggregator)", xlabel: loadX, ylabel: "Mean task completion time (ms)",
		scenario: WorkerAgg, arms: []arm{
			{name: "task-aware (FIFO-LM)", cfg: PointConfig{PASE: PASEOptions{TaskAware: true}}},
			{name: "size-based (SJF)"},
		},
		xs: []float64{0.3, 0.6, 0.9}, metrics: []metric{{name: "TCT", of: meanTCT, records: true}, {name: "inversions", of: taskInversions, note: true, records: true}},
		annotate: taskNote},
	// PASE's per-link arbitration composes with per-flow ECMP: it
	// arbitrates exactly the links the flow's hash selects.
	{ID: "leafspine", Title: "Extension: PASE on a multipath leaf-spine fabric with per-flow ECMP",
		title: "Leaf-spine fabric with per-flow ECMP (extension)", xlabel: loadX, ylabel: afctY,
		scenario: LeafSpine, protos: []Protocol{PASE, DCTCP, PFabric}, xs: []float64{0.2, 0.4, 0.6, 0.8}, metrics: afct},
	// PASE endpoints fall back to DCTCP-mode when the control plane goes
	// quiet, so the curves should degrade toward (not through) the
	// fault-free DCTCP floor, which no control-plane axis touches.
	{ID: "robust", Title: "Robustness: AFCT vs control-plane failure severity, PASE vs DCTCP baseline",
		title: "Graceful degradation under control-plane faults (left-right, 70% load)", xlabel: "Failure severity (%)", ylabel: afctY,
		scenario: LeftRight, axis: ctrlLoss, arms: []arm{
			{name: "PASE (ctrl loss)", cfg: PointConfig{Load: 0.7}},
			{name: "PASE (arb downtime)", cfg: PointConfig{Load: 0.7}, axis: arbDown},
			{name: "DCTCP (no faults)", cfg: PointConfig{Protocol: DCTCP, Load: 0.7}},
		},
		xs: []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95}, metrics: afct, seeds: 3,
		notes: []string{"each point averages 3 seeds", "ctrl loss: fraction of arbitration requests/responses dropped",
			"arb downtime: fraction of each 10ms window all arbitrators are crashed"}},
	// Two decades up to Opts.NumFlows, streamed: the tail should stay
	// flat as the run grows, and so should the peak RSS manifests record.
	{ID: "scale", Title: "Extension: streaming million-flow scale sweep (leaf-spine)",
		title: "Streaming scale sweep (leaf-spine, extension)", xlabel: "Flows per point", ylabel: "FCT (ms)",
		scenario: LeafSpine, axis: flows, xs: []float64{0.01, 0.1, 1}, flows: 1_000_000, arms: []arm{
			{name: "PASE", cfg: PointConfig{Stream: true}},
			{name: "DCTCP", cfg: PointConfig{Protocol: DCTCP, Stream: true}},
		},
		metrics: []metric{{name: "AFCT", of: afctMS}, {name: "p99", of: p99MS}}, annotate: scaleNote},
	// Credit shaping keeps ExpressPass's queue peak near flat while
	// window-based transports fill buffers. With more synchronized
	// senders than buffer slots, the incast arms must stay drop-free.
	{ID: "highspeed", Title: "Extension: ExpressPass vs PASE vs DCTCP on high-speed links",
		title: "High-speed links: ExpressPass vs PASE vs DCTCP (extension)", xlabel: "Link rate (Gbps)", ylabel: "FCT (ms) / queue peak (pkts)",
		axis: linkRate, xs: []float64{10, 40, 100}, arms: []arm{
			{name: "ExpressPass", cfg: PointConfig{Protocol: ExpressPass, Obs: true}},
			{name: "PASE", cfg: PointConfig{Obs: true}},
			{name: "DCTCP", cfg: PointConfig{Protocol: DCTCP, Obs: true}},
			{name: "ExpressPass incast", cfg: PointConfig{Protocol: ExpressPass, Scenario: Incast256, Load: incastLoad}, note: true},
			{name: "DCTCP incast", cfg: PointConfig{Protocol: DCTCP, Scenario: Incast256, Load: incastLoad}, note: true},
		},
		metrics: []metric{{name: "AFCT", of: afctMS}, {name: "p99", of: p99MS}, {name: "queue peak", of: queuePeak},
			{name: "messages", of: ctrlMsgs, note: true}, {name: "bytes", counter: "ctrl/bytes", note: true}, {name: "dropped", of: droppedData, note: true}},
		annotate: highspeedNote},
	// PASE+TE rehashes the dead spine's ECMP buckets onto the survivors;
	// PASE and DCTCP keep the build-time hash, so flows hashed onto
	// spine 0 blackhole until the progress deadline aborts them.
	{ID: "te", Title: "Robustness: reactive rerouting + hotspot TE under fabric-link failures (te-failover)",
		title: "Reactive rerouting + hotspot TE under uplink failures (te-failover)", xlabel: "Failed leaf→spine-0 uplinks", ylabel: "Fraction of flows completing",
		scenario: TEFailover, axis: failedUplinks, xs: []float64{0, 1, 2, 3, 4}, arms: []arm{
			{name: "PASE+TE", cfg: PointConfig{Load: 0.6, Route: route.Config{Reroute: true, TE: true}}},
			{name: "PASE", cfg: PointConfig{Load: 0.6}},
			{name: "DCTCP", cfg: PointConfig{Protocol: DCTCP, Load: 0.6}},
		},
		metrics:  []metric{{name: "survival", of: survival}, {name: "AFCT", of: afctMS, note: true}, {name: "aborted", of: aborted, note: true}},
		annotate: teNote},
	// PASE's two control planes as the fabric grows under one fixed
	// aggregate workload; Opts.Ctrl picks one arm.
	{ID: "ctrlscale", Title: "Extension: control plane at datacenter scale — arbitration hierarchy vs centralized",
		title: "Control plane at datacenter scale: hierarchy vs centralized (extension)", xlabel: "Racks", ylabel: "AFCT (ms) / ctrl MB",
		axis: racks, xs: []float64{16, 64, 256, 1024, 2048}, flows: 400, arms: []arm{
			{name: "hierarchy", cfg: PointConfig{Obs: true}},
			{name: "central", cfg: PointConfig{Obs: true, PASE: PASEOptions{Central: true}}},
		},
		metrics: []metric{{name: "AFCT", of: afctMS}, {name: "ctrl MB", of: ctrlMB}, {name: "bytes", counter: "ctrl/bytes", note: true},
			{name: "messages", of: ctrlMsgs, note: true}, {name: "pruned", counter: "arb/pruned", note: true},
			{name: "saved", counter: "arb/prune_saved_msgs", note: true}, {name: "delegated", counter: "arb/delegated", note: true},
			{name: "sync", counter: "arb/sync_messages", note: true}, {name: "queue ns", of: centralQueueNS, note: true}},
		annotate: ctrlScaleNote},
}

// Records reports whether the figure reads per-flow records, which a
// streamed run does not keep: it plots each flow's FCT, or one of its
// metrics reads them.
func (f Figure) Records() bool {
	return f.perFlow || slices.ContainsFunc(f.metrics, func(m metric) bool { return m.records })
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

// Run regenerates the figure. A row's (arm × x × seed) grid fans out
// over the point pool in that order; each curve point is the mean of
// its seeds' metric. Opts.Ctrl naming one of the row's arms runs that
// arm alone instead of forcing a control plane on every point.
func (f Figure) Run(o Opts) *Result {
	c := cells{load: 0.6, flows: cmp.Or(o.NumFlows, f.flows), seeds: cmp.Or(f.seeds, max(o.Seeds, 1))}
	if len(o.Loads) > 0 {
		c.load = o.Loads[0]
	}
	xs := f.sweep(o, c.flows)
	curve := f.cdfLoad > 0 || f.perFlow
	if curve {
		xs, c.seeds = []float64{cmp.Or(f.cdfLoad, c.load)}, 1
	}
	for _, p := range f.protos {
		c.arms = append(c.arms, arm{name: string(p), cfg: PointConfig{Protocol: p}})
	}
	c.arms = append(c.arms, f.arms...)
	if i := slices.IndexFunc(c.arms, func(a arm) bool { return a.name == o.Ctrl }); i >= 0 {
		c.arms, o.Ctrl = c.arms[i:i+1], ""
	}
	var cfgs []PointConfig
	first := make([][]int, len(c.arms)) // the first point of each (arm, x)
	for a, v := range c.arms {
		for j, x := range xs {
			p := v.cfg
			p.Protocol, p.Scenario = cmp.Or(p.Protocol, PASE), cmp.Or(p.Scenario, f.scenario)
			p.Load, p.NumFlows = cmp.Or(p.Load, c.load), c.flows
			if !cmp.Or(v.axis, f.axis).apply(&p, x, o.Seed) && j > 0 {
				first[a] = append(first[a], first[a][0])
				continue
			}
			first[a] = append(first[a], len(cfgs))
			for k := 0; k < c.seeds; k++ {
				p.Seed = o.Seed + uint64(k)
				cfgs = append(cfgs, p)
			}
		}
	}
	nm := len(f.metrics)
	vals := make([]float64, len(cfgs)*nm)
	curves := make([]Series, len(cfgs))
	res := &Result{ID: f.ID, Title: f.title, XLabel: f.xlabel, YLabel: f.ylabel, Notes: slices.Clone(f.notes)}
	mapPoints(cfgs, o, res, func(i int, r PointResult) {
		for m, mt := range f.metrics {
			vals[i*nm+m] = mt.value(r)
		}
		s := &curves[i]
		if f.cdfLoad > 0 {
			for _, p := range r.CDF {
				s.X, s.Y = append(s.X, p.Value.Millis()), append(s.Y, p.Fraction)
			}
		}
		if f.perFlow {
			slices.SortFunc(r.Records, func(a, b metrics.FlowRecord) int { return cmp.Compare(a.ID, b.ID) })
			for _, rec := range r.Records {
				s.X, s.Y = append(s.X, float64(rec.ID)), append(s.Y, rec.FCT().Millis())
			}
		}
	})
	c.xs = slices.Clone(xs)
	for j := range c.xs {
		if f.axis == load || f.axis == ctrlLoss || f.axis == arbDown { // plotted in %
			c.xs[j] *= 100
		}
	}
	c.metrics = f.metrics
	plotted := slices.DeleteFunc(slices.Clone(f.metrics), func(m metric) bool { return m.note })
	c.sums = make([][][]float64, len(c.arms))
	for a, v := range c.arms {
		for _, i := range first[a] {
			sum := make([]float64, nm)
			for k := range c.seeds * nm { // seed-major: each metric sums in seed order
				sum[k%nm] += vals[i*nm+k]
			}
			c.sums[a] = append(c.sums[a], sum)
		}
		if v.note {
			continue
		}
		if curve {
			s := curves[first[a][0]]
			s.Name = v.name
			res.Series = append(res.Series, s)
		}
		for _, mt := range plotted {
			s := Series{Name: v.name, X: c.xs}
			if len(plotted) > 1 {
				s.Name += " " + mt.name
			}
			for j := range xs {
				s.Y = append(s.Y, c.mean(a, j, mt.name))
			}
			res.Series = append(res.Series, s)
		}
	}
	if f.annotate != nil {
		f.annotate(res, c)
	}
	return res
}

// sweep resolves the row's x values: a load axis takes Opts.Loads, then
// the row's, then DefaultLoads; a flows axis scales the flow count;
// Opts.Racks caps a racks axis, ending it at exactly that count.
func (f Figure) sweep(o Opts, n int) []float64 {
	xs := f.xs
	switch {
	case f.axis == load && len(o.Loads) > 0:
		return o.Loads
	case f.axis == load && xs == nil:
		return DefaultLoads
	case f.axis == flows:
		xs = nil
		for _, x := range f.xs {
			xs = append(xs, float64(max(int(x*float64(n)), 10)))
		}
	case f.axis == racks && o.Racks > 0:
		xs = slices.DeleteFunc(slices.Clone(f.xs), func(x float64) bool { return x > float64(o.Racks) })
		if len(xs) == 0 || xs[len(xs)-1] != float64(o.Racks) {
			xs = append(xs, float64(o.Racks))
		}
	}
	return xs
}

// apply sets x on p and reports whether the axis touches p at all: an
// arm that fixes its own fabric is outside a linkRate sweep, and the
// control-plane axes leave protocols without arbitration alone. seed
// seeds the fault plans.
func (a axis) apply(p *PointConfig, x float64, seed uint64) bool {
	switch a {
	case load:
		p.Load = x
	case flows:
		p.NumFlows = int(x)
	case linkRate:
		if p.Scenario != "" {
			return false
		}
		p.Scenario = Scenario(fmt.Sprintf("highspeed-%g", x))
	case racks:
		p.Scenario = Scenario(fmt.Sprintf("%s-%d", CtrlScale, int(x)))
	case failedUplinks:
		p.AbortAfter = TEAbortAfter
		p.Faults = teUplinkChaos(teFailoverLS(), int(x), seed)
	case ctrlLoss, arbDown:
		const period = 10 * sim.Millisecond // arbDown's crash cycle, which robust's notes name
		switch {
		case p.Protocol != PASE:
			return false
		case x > 0 && a == ctrlLoss:
			p.Faults = &faults.Plan{Seed: seed, Ctrl: []faults.CtrlFault{{Drop: x}}}
		case x > 0: // each crash wipes the arbitrators' soft state
			p.Faults = &faults.Plan{Seed: seed, Crashes: []faults.CrashFault{{Link: -1, At: period,
				For: sim.Duration(x * float64(period)), Every: period}}}
		}
	}
	return true
}

// improvement is the percent by which v improves on base.
func improvement(base, v float64) float64 { return ratio(base-v, base) * 100 }

// improvementNote annotates figure 10c the way the paper does: the
// per-load % improvement of PASE (series 0) over pFabric (series 1).
func improvementNote(res *Result, _ cells) {
	var imp []string
	for i, x := range res.Series[0].X {
		if pf := res.Series[1].Y[i]; pf > 0 {
			imp = append(imp, fmt.Sprintf("%.0f%%@%g%%", improvement(pf, res.Series[0].Y[i]), x))
		}
	}
	res.Notes = append(res.Notes, "PASE improvement over pFabric: "+fmt.Sprint(imp))
}

// optimizations plots figs 11a/11b: how far early pruning and
// delegation (arm 0) improve on neither (arm 1), from the seed sums.
func optimizations(res *Result, c cells) {
	s := Series{Name: "optimizations", X: c.xs}
	for j := range c.xs {
		s.Y = append(s.Y, improvement(c.sums[1][j][0], c.sums[0][j][0]))
	}
	res.Series = append(res.Series, s)
}

func taskNote(res *Result, c cells) {
	for a, v := range c.arms {
		var inv []float64
		for j := range c.xs {
			inv = append(inv, c.mean(a, j, "inversions"))
		}
		kind, _, _ := strings.Cut(v.name, " ")
		res.Notes = append(res.Notes, fmt.Sprintf("task-order inversions, %s: %v", kind, inv))
	}
}

func scaleNote(res *Result, c cells) {
	res.Notes = append(res.Notes,
		fmt.Sprintf("offered load %.0f%%; streaming collector, quantile sketch eps=%g", c.load*100, metrics.DefaultSketchEps),
		"memory is O(in-flight flows): see the run manifest's peak_rss_bytes")
}

// highspeedNote prices each transport's control traffic at the top link
// rate and reads the incast pair, the row's last two arms.
func highspeedNote(res *Result, c cells) {
	last, ep, dc := len(c.xs)-1, len(c.arms)-2, len(c.arms)-1
	for a, v := range c.arms[:ep] {
		res.Notes = append(res.Notes, fmt.Sprintf("%s control overhead at %g Gbps: %.0f messages, %.0f bytes (ctrl/bytes)",
			v.name, c.xs[last], c.mean(a, last, "messages"), c.mean(a, last, "bytes")))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("256→1 incast at 100 Gbps, %.0f%% load: ExpressPass dropped %.0f data pkts (queue peak %.0f), DCTCP dropped %.0f (queue peak %.0f)",
			incastLoad*100, c.mean(ep, 0, "dropped"), c.mean(ep, 0, "queue peak"), c.mean(dc, 0, "dropped"), c.mean(dc, 0, "queue peak")),
		fmt.Sprintf("rate sweep at %.0f%% offered load; credit shaping keeps the data queue bounded with no data-plane drops", c.load*100))
}

func teNote(res *Result, c cells) {
	last := len(c.xs) - 1
	for a, v := range c.arms {
		clean, failed := c.mean(a, 0, "AFCT"), c.mean(a, last, "AFCT")
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: AFCT %.3f ms fault-free → %.3f ms with all four uplinks down (%.2fx), %.0f flows aborted",
			v.name, clean, failed, ratio(failed, clean), c.mean(a, last, "aborted")))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"uplinks fail at %v + k·%v for %v each; progress deadline %v; offered load %.0f%%",
		TEFaultStart.Std(), TEFaultStagger.Std(), TEFaultFor.Std(), TEAbortAfter.Std(), c.arms[0].cfg.Load*100))
}

// ctrlScaleNote quantifies the scaling claim: hierarchy control traffic
// grows sub-linearly in rack count (pruning resolves most refreshes low
// in the tree) while the central arm's per-epoch sync grows with the
// fabric.
func ctrlScaleNote(res *Result, c cells) {
	last := len(c.xs) - 1
	for a, v := range c.arms {
		res.Notes = append(res.Notes, fmt.Sprintf("%s: ctrl bytes ×%.2f as racks ×%d (%.0f → %.0f messages)",
			v.name, ratio(c.mean(a, last, "bytes"), c.mean(a, 0, "bytes")), int(c.xs[last])/int(c.xs[0]),
			c.mean(a, 0, "messages"), c.mean(a, last, "messages")))
		if v.name == "hierarchy" {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"hierarchy at %d racks: %.0f refreshes pruned early (saving %.0f messages), %.0f delegated-slice stops",
				int(c.xs[last]), c.mean(a, last, "pruned"), c.mean(a, last, "saved"), c.mean(a, last, "delegated")))
		} else {
			res.Notes = append(res.Notes, fmt.Sprintf("central at %d racks: %.0f sync messages, mean controller queueing %.0f ns",
				int(c.xs[last]), c.mean(a, last, "sync"), c.mean(a, last, "queue ns")))
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"fixed %v aggregate workload at %.0f%% load, %d flows per point; per-level message counts and RTTs: arb/msgs/level* and arb/rtt/level* in the run manifest",
		netem.BitRate(CtrlScaleReference), c.load*100, c.flows))
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// teUplinkChaos downs the first k leaf→spine-0 uplinks, staggered
// TEFaultStagger apart so no two rules fire at one instant and none
// lands on a TE-epoch multiple.
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
