// Package pase is a from-scratch Go implementation of PASE
// ("Friends, not Foes — Synthesizing Existing Transport Strategies for
// Data Center Networks", SIGCOMM 2014) together with the packet-level
// network simulator, the baseline transports it is evaluated against
// (DCTCP, D2TCP, L2DCT, pFabric, PDQ, and credit-based ExpressPass),
// and the paper's full experimental harness.
//
// PASE synthesizes three transport strategies:
//
//   - arbitration: a control plane of per-link arbitrators maps every
//     flow to a priority queue and a reference rate (Algorithm 1),
//     organized bottom-up over the data-center tree with early pruning
//     and delegation for scalability;
//   - in-network prioritization: commodity switches schedule packets
//     with a handful of strict-priority queues plus ECN;
//   - self-adjusting endpoints: a DCTCP-derived transport uses the
//     (queue, reference rate) guidance for its window (Algorithm 2)
//     and probes for spare capacity on its own.
//
// # Quick start
//
// Run one simulation point and inspect the headline metrics:
//
//	rep, err := pase.Simulate(pase.SimConfig{
//		Protocol: pase.ProtocolPASE,
//		Scenario: pase.ScenarioIntraRack,
//		Load:     0.7,
//		NumFlows: 1000,
//	})
//	fmt.Println(rep.AFCT, rep.P99, rep.LossRate)
//
// Regenerate a figure from the paper:
//
//	fig, err := pase.RunFigure("9a", pase.FigureOpts{NumFlows: 2000})
//	fmt.Println(fig.Render())
//
// Lower-level building blocks (the discrete-event engine, queue
// disciplines, topologies, transports) live under internal/ and are
// exercised through this façade and the cmd/ binaries.
package pase

import (
	"fmt"
	"io"
	"time"

	"pase/internal/experiments"
	"pase/internal/faults"
	"pase/internal/obs"
	"pase/internal/route"
	"pase/internal/sim"
	"pase/internal/trace"
)

// Snapshot is a run's merged observability image: counters, gauge
// high-watermarks and log2 histograms keyed by instrument name. It is
// produced per simulation point and merged deterministically, so the
// JSON form is byte-identical regardless of parallelism.
type Snapshot = obs.Snapshot

// MergeSnapshots folds snapshots together in input order (counters and
// histogram buckets add; gauges take the max). Nil entries are skipped.
func MergeSnapshots(snaps []*Snapshot) *Snapshot { return obs.MergeAll(snaps) }

// Manifest is the JSON run record written alongside figure output:
// parameters, seeds, git revision, wall-clock cost and the merged
// Snapshot.
type Manifest = experiments.Manifest

// GitRev returns the VCS revision baked into the binary ("" outside a
// VCS build); uncommitted changes add a "+dirty" suffix.
func GitRev() string { return experiments.GitRev() }

// Protocol selects a transport implementation.
type Protocol string

// The transports implemented in this repository.
const (
	ProtocolDCTCP   Protocol = Protocol(experiments.DCTCP)
	ProtocolD2TCP   Protocol = Protocol(experiments.D2TCP)
	ProtocolL2DCT   Protocol = Protocol(experiments.L2DCT)
	ProtocolPFabric Protocol = Protocol(experiments.PFabric)
	ProtocolPDQ     Protocol = Protocol(experiments.PDQ)
	ProtocolPASE    Protocol = Protocol(experiments.PASE)
	// ProtocolExpressPass is the credit-based transport of Cho et al.
	// (SIGCOMM 2017): receivers pace 84-byte credits, senders transmit
	// one data packet per credit received, and switches rate-limit the
	// credit class so the triggered data can never oversubscribe a
	// link — data-plane drops are eliminated by construction and credit
	// drops become the congestion feedback.
	ProtocolExpressPass Protocol = Protocol(experiments.ExpressPass)
)

// Protocols lists every available transport.
func Protocols() []Protocol {
	return []Protocol{ProtocolDCTCP, ProtocolD2TCP, ProtocolL2DCT,
		ProtocolPFabric, ProtocolPDQ, ProtocolPASE, ProtocolExpressPass}
}

// Scenario selects one of the paper's evaluation settings.
type Scenario string

// The paper's scenarios (§4).
const (
	// ScenarioLeftRight: 3-tier fabric (160 hosts, 4:1
	// oversubscription); the left 80 hosts send to the right 80 and
	// the aggregation-core link is the bottleneck.
	ScenarioLeftRight Scenario = Scenario(experiments.LeftRight)
	// ScenarioIntraRack: 20-host rack, random pairs, U[2,198] KB.
	ScenarioIntraRack Scenario = Scenario(experiments.IntraRack)
	// ScenarioIntraRackLarge: 20-host rack, U[100,500] KB.
	ScenarioIntraRackLarge Scenario = Scenario(experiments.IntraRackLarge)
	// ScenarioWorkerAgg: search-style fan-in — every query draws
	// simultaneous responses from the rack's workers to one
	// aggregator.
	ScenarioWorkerAgg Scenario = Scenario(experiments.WorkerAgg)
	// ScenarioDeadline: U[100,500] KB with 5–25 ms deadlines.
	ScenarioDeadline Scenario = Scenario(experiments.Deadline)
	// ScenarioTestbed: the paper's 10-node testbed, simulated.
	ScenarioTestbed Scenario = Scenario(experiments.Testbed)
	// ScenarioLeafSpine: extension — a 4-leaf × 2-spine multipath
	// fabric with per-flow ECMP.
	ScenarioLeafSpine Scenario = Scenario(experiments.LeafSpine)
	// ScenarioLeafSpineWide: a wider 8-leaf × 4-spine fabric (80 hosts)
	// used by the sharded-engine benchmarks.
	ScenarioLeafSpineWide Scenario = Scenario(experiments.LeafSpineWide)
	// ScenarioTEFailover: a 4-leaf × 3-spine fabric (non-power-of-two
	// spine count) for the routing-control-loop experiments — chaos
	// plans down fabric links mid-run and the reactive reroute +
	// hotspot-TE loop keeps flows alive.
	ScenarioTEFailover Scenario = Scenario(experiments.TEFailover)
	// ScenarioHighspeed10/40/100: extension — a 10/40/100 Gbps
	// single-rack all-to-all with rate-scaled buffers and short link
	// delays, the regime ExpressPass targets.
	ScenarioHighspeed10  Scenario = Scenario(experiments.Highspeed10)
	ScenarioHighspeed40  Scenario = Scenario(experiments.Highspeed40)
	ScenarioHighspeed100 Scenario = Scenario(experiments.Highspeed100)
	// ScenarioHighspeedShallow: the 100 Gbps rack with a shallow
	// 64-packet buffer — rate-scaled buffering no longer hides bursts.
	ScenarioHighspeedShallow Scenario = Scenario(experiments.HighspeedShallow)
	// ScenarioIncast64 / ScenarioIncast256: 64 and 256 synchronized
	// senders converging on one 100 Gbps receiver. At 256→1 the senders
	// outnumber the bottleneck's buffer slots, so window-based
	// transports must drop; credit-based ones must not.
	ScenarioIncast64  Scenario = Scenario(experiments.Incast64)
	ScenarioIncast256 Scenario = Scenario(experiments.Incast256)
	// ScenarioCtrlScale: extension — the control-plane-at-scale
	// family. "ctrlscale" is a 64-rack fabric; "ctrlscale-<racks>"
	// picks any rack count (the ctrlscale figure sweeps 16 → 2048). A
	// fixed aggregate interactive workload spreads over the growing
	// fabric, and PASE defaults to the deep arbitration hierarchy
	// (fan-out-4 tree, sharded root). SimConfig.Racks / the -racks
	// flag are shorthand for picking a family member.
	ScenarioCtrlScale Scenario = Scenario(experiments.CtrlScale)
)

// Scenarios lists every available scenario.
func Scenarios() []Scenario {
	return []Scenario{ScenarioLeftRight, ScenarioIntraRack,
		ScenarioIntraRackLarge, ScenarioWorkerAgg, ScenarioDeadline,
		ScenarioTestbed, ScenarioLeafSpine, ScenarioLeafSpineWide,
		ScenarioTEFailover,
		ScenarioHighspeed10, ScenarioHighspeed40, ScenarioHighspeed100,
		ScenarioHighspeedShallow, ScenarioIncast64, ScenarioIncast256,
		ScenarioCtrlScale}
}

// PASEOptions toggle PASE's internal mechanisms (ablations).
type PASEOptions struct {
	// LocalOnly restricts arbitration to the hosts' access links.
	LocalOnly bool
	// NoPruning / NoDelegation disable the control-plane overhead
	// optimizations of §3.1.2.
	NoPruning    bool
	NoDelegation bool
	// NumQueues overrides the switch priority-queue count (0 = the
	// default of 8; otherwise 2 to 127).
	NumQueues int
	// DisableRefRate ignores the arbitrated reference rate
	// (the PASE-DCTCP ablation of Fig 13a).
	DisableRefRate bool
	// DisableProbing turns off probe-based loss recovery (§4.3.2).
	DisableProbing bool
	// NoReorderGuard skips draining before priority promotions.
	NoReorderGuard bool
	// TaskAware arbitrates task-carrying flows FIFO by task id
	// instead of shortest-remaining-first (Baraat-style task-aware
	// scheduling, the alternative criterion §3.1.1 names).
	TaskAware bool
	// Central swaps PASE's arbitration hierarchy for the fully
	// centralized comparison arm: one controller behind the core
	// computes whole-path allocations in a single serialized exchange
	// (Shah & Xie-style). Hierarchy, delegation and pruning are
	// ignored. SimConfig.Ctrl = "central" sets this too.
	Central bool
	// HierFanOut / HierTopShards override the deep arbitration
	// hierarchy's shape — the aggregation-tree fan-out and the number
	// of replicated root shards (0 = scenario default; most scenarios
	// default to the classic flat 3-tier climb, ctrlscale to fan-out 4
	// with 2 root shards).
	HierFanOut    int
	HierTopShards int
}

// FaultPlan is a deterministic fault-injection schedule: link
// down/up windows, probabilistic per-class packet loss and
// corruption, arbitration message drop/delay, and arbitrator
// crash/restart cycles. Build one directly or parse the -faults
// CLI syntax with ParseFaults. A nil or empty plan injects nothing
// and leaves runs byte-identical to fault-free ones.
type FaultPlan = faults.Plan

// ParseFaults parses the -faults CLI syntax into a FaultPlan:
// semicolon-separated clauses such as
//
//	seed=7; linkdown:link=3,at=10ms,for=5ms; loss:link=*,class=data,rate=0.01;
//	ctrl:drop=0.2,delay=100us; crash:link=*,at=20ms,for=2ms,every=20ms
//
// The returned plan is validated; the error names the offending
// clause.
func ParseFaults(spec string) (*FaultPlan, error) { return faults.Parse(spec) }

// SimConfig describes one simulation run.
type SimConfig struct {
	Protocol Protocol
	Scenario Scenario
	// Load is the offered load in (0, 1] relative to the scenario's
	// bottleneck capacity.
	Load float64
	// NumFlows is the number of foreground flows (default 2000).
	NumFlows int
	// Seed makes runs reproducible; equal seeds give identical runs.
	Seed uint64
	// IncludeFlowLog populates Report.FlowLog with per-flow outcomes.
	IncludeFlowLog bool
	// Obs collects an observability Snapshot (Report.Obs): engine,
	// queue, arbitration and transport counters plus occupancy
	// histograms. Off by default — the hot path then costs only nil
	// checks.
	Obs bool
	// Check attaches the runtime invariant checker to the run: queue
	// conservation and capacity, strict-priority ordering, ECN marking,
	// arbitration feasibility, clock monotonicity and per-flow FCT
	// lower bounds are verified as the simulation executes. Breaches
	// land in Report.Violations / Report.ViolationDetails. Off by
	// default — the hot path then costs only nil checks. Setting the
	// PASE_CHECK environment variable force-enables checking for every
	// run.
	Check bool
	// FlowTrace records flow lifecycle events (start/done/abort) into
	// the report; write them with Report.WriteFlowTrace.
	FlowTrace bool
	// QueueTrace > 0 samples every port's queue occupancy at this
	// interval; write the samples with Report.WriteQueueTrace.
	QueueTrace time.Duration
	// SpanTrace records the span-based flight recording: per-flow
	// lifecycle spans (waiting for the control plane, transmission
	// epochs per priority queue, retransmission/timeout/fallback
	// marks) plus PASE's control-plane exchanges through the
	// arbitrator hierarchy. Export with Report.WritePerfetto. Traced
	// runs shard and stream like untraced ones, and the exported bytes
	// are identical at every shard count and parallelism.
	SpanTrace bool
	// TraceSampleN keeps 1 in N flow traces (0 or 1 = every flow),
	// seed-driven so re-runs trace the same flows. Flows that
	// misbehaved — retransmissions, timeouts, control-plane fallback,
	// aborts — are always kept regardless of the draw.
	TraceSampleN int
	// TraceSpill, with SpanTrace, streams the Perfetto trace to this
	// writer as flows complete instead of retaining traces in memory —
	// the O(in-flight) pairing for Stream runs. Forces the serial
	// engine; Report.WritePerfetto then has nothing left to write.
	TraceSpill io.Writer
	// FlowTraceSpill, with FlowTrace, streams the flow-event TSV the
	// same way. Forces the serial engine.
	FlowTraceSpill io.Writer
	// Progress, if set, is called by SimulateSeeds after each seed's
	// run completes with (done, total). It may be invoked concurrently
	// from worker goroutines.
	Progress func(done, total int)
	// Faults injects the given fault plan into the run (nil or empty =
	// no faults, byte-identical to a fault-free run). Fault decisions
	// draw from their own seeded RNG stream, so adding a zero-rate plan
	// never perturbs workload or transport randomness.
	Faults *FaultPlan
	// Stream makes the point's memory bounded: metrics feed a quantile
	// sketch instead of a per-flow store (arrivals come from the workload
	// iterator and flow state is recycled in every run).
	// Headline metrics (AFCT, throughput, loss) are identical to a
	// stored run; P50/P99 and the CDF are within SketchEps. Streaming
	// runs keep no per-flow records, so IncludeFlowLog yields an empty
	// FlowLog.
	Stream bool
	// SketchEps bounds the streaming quantile sketch's relative error
	// (0 = the metrics package default, 0.005).
	SketchEps float64
	// Shards partitions the fabric across this many independently
	// clocked engine shards synchronized by conservative lookahead
	// (0 or 1 = serial). Results are byte-identical to a serial run at
	// every shard count — trace output included. Runs that cannot
	// shard — PASE and PDQ (their control planes are
	// fabric-synchronous), spill-mode trace writers, and single-rack
	// topologies — run on the serial engine instead and say so in
	// Report.ShardFallback (and, when Obs is set, in the
	// shard/fallback_serial counter).
	Shards int
	// Reroute enables failure rerouting on leaf-spine fabrics: link
	// up/down events from the fault plan immediately rehash the
	// affected ECMP buckets onto surviving spines (uplink failures at
	// the source leaf; downlink failures propagated to every leaf). A
	// no-op on tree fabrics and without a fault plan.
	Reroute bool
	// TE enables the periodic traffic-engineering loop on leaf-spine
	// fabrics: every TEEpoch each leaf shifts its most-loaded ECMP
	// bucket off the hottest uplink, with hysteresis and per-bucket
	// dwell so routes do not flap.
	TE bool
	// TEEpoch overrides the TE decision period (0 = 1 ms).
	TEEpoch time.Duration
	// AbortAfter, when positive, makes every sender abort its flow
	// after this long without forward progress (no new data
	// acknowledged). Aborted flows are excluded from AFCT and counted
	// in Report.Aborted. Zero disables aborts.
	AbortAfter time.Duration
	// Ctrl picks the control-plane arm for PASE runs: "" or
	// "hierarchy" (the default distributed arbitration hierarchy) or
	// "central" (the single-controller comparison arm).
	Ctrl string
	// Racks, when positive, is shorthand for Scenario =
	// "ctrlscale-<Racks>": the control-plane-at-scale fabric with that
	// many racks.
	Racks int
	// PASE ablation switches (PASE protocol only).
	PASE PASEOptions
}

// CDFPoint is one step of an empirical FCT distribution.
type CDFPoint struct {
	FCT      time.Duration
	Fraction float64
}

// Report is the outcome of one simulation run.
type Report struct {
	// Flows and Completed count foreground flows.
	Flows     int
	Completed int
	// Aborted counts flows the transport killed (progress-deadline
	// aborts, PDQ early termination); they are excluded from AFCT.
	Aborted int

	AFCT time.Duration
	P50  time.Duration
	P99  time.Duration

	// AppThroughput is the fraction of deadline flows that met their
	// deadline (deadline scenarios only).
	AppThroughput float64
	DeadlineFlows int

	// LossRate is dropped data packets over attempted transmissions.
	LossRate float64
	// CtrlMessages counts control-plane messages (PASE arbitration,
	// PDQ header exchanges, or ExpressPass credits and credit
	// requests).
	CtrlMessages int64

	Retransmits int64
	Timeouts    int64

	CDF []CDFPoint

	// FlowLog holds per-flow outcomes when SimConfig.IncludeFlowLog
	// is set.
	FlowLog []FlowOutcome

	// Obs is the run's observability snapshot (nil unless
	// SimConfig.Obs).
	Obs *Snapshot

	// Violations counts invariant breaches the runtime checker
	// observed (always 0 unless SimConfig.Check or PASE_CHECK was set);
	// ViolationDetails holds up to the first 64, formatted.
	Violations       int64
	ViolationDetails []string

	// ShardFallback names why a SimConfig.Shards > 1 request ran on the
	// serial engine — "pase", "pdq", "trace_spill" or "single_atom" —
	// and is empty when the run sharded or no sharding was asked for.
	ShardFallback string

	flowEvents   []trace.FlowEvent
	queueSamples []trace.QueueSample
	runTrace     *trace.RunTrace
}

// FlowTraceLen and QueueTraceLen report how much trace data the run
// recorded (zero unless the matching SimConfig switch was set).
func (r *Report) FlowTraceLen() int  { return len(r.flowEvents) }
func (r *Report) QueueTraceLen() int { return len(r.queueSamples) }

// SpanTraceLen reports how many flow traces the flight recorder kept
// (zero unless SimConfig.SpanTrace was set; zero in spill mode, where
// traces stream out as flows complete).
func (r *Report) SpanTraceLen() int {
	if r.runTrace == nil {
		return 0
	}
	return len(r.runTrace.Flows)
}

// TraceDigest folds the flight recording's canonical content into one
// hash — equal digests mean byte-identical exports. Zero without
// SpanTrace.
func (r *Report) TraceDigest() uint64 {
	if r.runTrace == nil {
		return 0
	}
	return r.runTrace.Digest()
}

// WritePerfetto exports the flight recording as Chrome/Perfetto
// trace-event JSON: flows as spans on a "flows" track, arbitration
// exchanges as spans plus flow arrows on an "arbitration" track, and
// queue occupancies as counter tracks. Load the file in
// https://ui.perfetto.dev or chrome://tracing.
func (r *Report) WritePerfetto(w io.Writer) error {
	if r.runTrace == nil {
		return fmt.Errorf("pase: no span trace recorded (set SimConfig.SpanTrace; with TraceSpill the trace already streamed)")
	}
	return r.runTrace.WritePerfetto(w)
}

// WriteFlowTrace emits the flow lifecycle events as TSV
// (time_ns, kind, flow, src, dst, size, fct_ns).
func (r *Report) WriteFlowTrace(w io.Writer) error {
	return trace.WriteFlowEvents(w, r.flowEvents)
}

// WriteQueueTrace emits the sampled queue occupancies as TSV
// (time_ns, port, qlen, qbytes).
func (r *Report) WriteQueueTrace(w io.Writer) error {
	return trace.WriteQueueSamples(w, r.queueSamples)
}

// FlowOutcome is the per-flow record of a run.
type FlowOutcome struct {
	ID       uint64
	Size     int64
	Start    time.Duration // simulated time of arrival
	FCT      time.Duration
	Deadline time.Duration // zero if none
	Done     bool
	Aborted  bool // the transport killed the flow
	Retx     int
	Timeouts int
}

// normalize validates cfg and fills defaults.
func normalize(cfg SimConfig) (SimConfig, error) {
	if cfg.Load <= 0 || cfg.Load > 1 {
		return cfg, fmt.Errorf("pase: Load must be in (0, 1], got %v", cfg.Load)
	}
	if cfg.NumFlows < 0 {
		return cfg, fmt.Errorf("pase: NumFlows must not be negative, got %d", cfg.NumFlows)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return cfg, fmt.Errorf("pase: %w", err)
	}
	if q := cfg.PASE.NumQueues; q != 0 && (q < 2 || q > 127) {
		// Below 2 there is no class to demote into; above 127 the int8
		// queue index of a Decision wraps.
		return cfg, fmt.Errorf("pase: PASE.NumQueues must be 0 (default) or in [2, 127], got %d", q)
	}
	if cfg.Protocol == "" {
		cfg.Protocol = ProtocolPASE
	}
	racksFrom := "Scenario"
	if cfg.Racks > 0 {
		racksFrom = "Racks"
		cfg.Scenario = Scenario(fmt.Sprintf("%s-%d", experiments.CtrlScale, cfg.Racks))
	}
	if err := checkRacks(racksFrom, experiments.CtrlScaleRacksOf(experiments.Scenario(cfg.Scenario))); err != nil {
		return cfg, err
	}
	if cfg.Scenario == "" {
		cfg.Scenario = ScenarioIntraRack
	}
	if !valid(string(cfg.Protocol), protocolNames()) {
		return cfg, fmt.Errorf("pase: unknown protocol %q", cfg.Protocol)
	}
	if !valid(string(cfg.Scenario), scenarioNames()) &&
		experiments.CtrlScaleRacksOf(experiments.Scenario(cfg.Scenario)) == 0 {
		return cfg, fmt.Errorf("pase: unknown scenario %q", cfg.Scenario)
	}
	switch cfg.Ctrl {
	case "", "hierarchy":
	case "central":
		cfg.PASE.Central = true
	default:
		return cfg, fmt.Errorf("pase: unknown control plane %q (want \"hierarchy\" or \"central\")", cfg.Ctrl)
	}
	return cfg, nil
}

// pointConfig maps the public config onto the experiment runner's.
func pointConfig(cfg SimConfig) experiments.PointConfig {
	return experiments.PointConfig{
		Protocol:  experiments.Protocol(cfg.Protocol),
		Scenario:  experiments.Scenario(cfg.Scenario),
		Load:      cfg.Load,
		Seed:      cfg.Seed,
		NumFlows:  cfg.NumFlows,
		Obs:       cfg.Obs,
		Check:     cfg.Check,
		Faults:    cfg.Faults,
		Stream:    cfg.Stream,
		SketchEps: cfg.SketchEps,
		Shards:    cfg.Shards,
		Route: route.Config{
			Reroute: cfg.Reroute,
			TE:      cfg.TE,
			Epoch:   sim.Duration(cfg.TEEpoch),
		},
		AbortAfter: sim.Duration(cfg.AbortAfter),
		Trace: experiments.TraceConfig{
			FlowLog:       cfg.FlowTrace,
			QueueSample:   sim.Duration(cfg.QueueTrace),
			Spans:         cfg.SpanTrace,
			SampleN:       cfg.TraceSampleN,
			SpanWriter:    cfg.TraceSpill,
			FlowLogWriter: cfg.FlowTraceSpill,
		},
		PASE: experiments.PASEOptions{
			LocalOnly:      cfg.PASE.LocalOnly,
			NoPruning:      cfg.PASE.NoPruning,
			NoDelegation:   cfg.PASE.NoDelegation,
			NumQueues:      cfg.PASE.NumQueues,
			DisableRefRate: cfg.PASE.DisableRefRate,
			DisableProbing: cfg.PASE.DisableProbing,
			NoReorderGuard: cfg.PASE.NoReorderGuard,
			TaskAware:      cfg.PASE.TaskAware,
			Central:        cfg.PASE.Central,
			HierFanOut:     cfg.PASE.HierFanOut,
			HierTopShards:  cfg.PASE.HierTopShards,
		},
	}
}

// Simulate runs one simulation point.
func Simulate(cfg SimConfig) (*Report, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	return report(experiments.RunPoint(pointConfig(cfg)), cfg.IncludeFlowLog), nil
}

// SimulateSeeds runs the same configuration across consecutive
// workload seeds (cfg.Seed, cfg.Seed+1, …) on a bounded worker pool
// and returns one Report per seed, in seed order. parallelism <= 0
// uses one worker per CPU; 1 runs serially. Each report is identical
// to what Simulate would return for that seed — parallelism only
// changes wall-clock time.
func SimulateSeeds(cfg SimConfig, seeds, parallelism int) ([]*Report, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	if seeds < 1 {
		seeds = 1
	}
	cfgs := make([]experiments.PointConfig, seeds)
	for i := range cfgs {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		cfgs[i] = pointConfig(c)
	}
	reps := make([]*Report, seeds)
	res := experiments.RunPointsOpts(cfgs, experiments.Opts{
		Parallelism: parallelism, Progress: cfg.Progress})
	for i, r := range res {
		reps[i] = report(r, cfg.IncludeFlowLog)
	}
	return reps, nil
}

// report converts an experiment result into the public Report.
func report(r experiments.PointResult, includeFlowLog bool) *Report {
	rep := &Report{
		Flows:         r.Summary.Flows,
		Completed:     r.Summary.Completed,
		Aborted:       r.Summary.Aborted,
		AFCT:          r.Summary.AFCT.Std(),
		P50:           r.Summary.P50.Std(),
		P99:           r.Summary.P99.Std(),
		AppThroughput: r.Summary.AppThroughput,
		DeadlineFlows: r.Summary.DeadlineFlows,
		LossRate:      r.LossRate,
		CtrlMessages:  r.CtrlMessages,
		Retransmits:   r.Summary.Retx,
		Timeouts:      r.Summary.Timeouts,
		Obs:           r.Obs,
		Violations:    r.Violations,
		ShardFallback: r.ShardFallback,
		flowEvents:    r.FlowEvents,
		queueSamples:  r.QueueSamples,
		runTrace:      r.Trace,
	}
	for _, v := range r.CheckViolations {
		rep.ViolationDetails = append(rep.ViolationDetails, v.String())
	}
	for _, p := range r.CDF {
		rep.CDF = append(rep.CDF, CDFPoint{FCT: p.Value.Std(), Fraction: p.Fraction})
	}
	if includeFlowLog {
		for _, rec := range r.Records {
			rep.FlowLog = append(rep.FlowLog, FlowOutcome{
				ID:       rec.ID,
				Size:     rec.Size,
				Start:    time.Duration(rec.Start),
				FCT:      rec.FCT().Std(),
				Deadline: time.Duration(rec.Deadline),
				Done:     rec.Done,
				Aborted:  rec.Aborted,
				Retx:     rec.Retx,
				Timeouts: rec.Timeouts,
			})
		}
	}
	return rep
}

func valid(v string, set []string) bool {
	for _, s := range set {
		if s == v {
			return true
		}
	}
	return false
}

func protocolNames() []string {
	var out []string
	for _, p := range Protocols() {
		out = append(out, string(p))
	}
	return out
}

func scenarioNames() []string {
	var out []string
	for _, s := range Scenarios() {
		out = append(out, string(s))
	}
	return out
}

// FigureOpts scale a figure regeneration run.
type FigureOpts struct {
	// NumFlows per simulation point (default 2000).
	NumFlows int
	// Seed for the synthetic workloads.
	Seed uint64
	// Seeds averages every sweep point over this many consecutive
	// seeds (0 or 1 = single run).
	Seeds int
	// Loads overrides the figure's load sweep (fractions in (0,1]).
	Loads []float64
	// Parallelism bounds how many simulation points run concurrently
	// (0 = one worker per CPU, 1 = serial). Every point is a hermetic
	// simulation and results are assembled in a fixed order, so the
	// figure produced is identical at any setting — parallelism only
	// changes wall-clock time.
	Parallelism int
	// Obs collects an observability snapshot per simulation point and
	// merges them into FigureData.Snapshot (and the run Manifest). The
	// merge happens in input order, so the result is identical at any
	// Parallelism.
	Obs bool
	// Check runs every simulation point with the runtime invariant
	// checker attached; FigureData.Violations totals the breaches
	// across the whole grid. Setting the PASE_CHECK environment
	// variable force-enables this.
	Check bool
	// Progress, if set, is called after each simulation point with the
	// number of points done and the total. It may be invoked
	// concurrently from worker goroutines; the callback must be safe
	// for that.
	Progress func(done, total int)
	// Faults applies a fault-injection plan to every simulation point
	// of the figure that does not already carry its own (nil or empty
	// = no faults, byte-identical output).
	Faults *FaultPlan
	// Stream gives every simulation point the bounded-memory sink (a
	// quantile sketch instead of per-flow records; the workload iterator
	// and recycled flow state serve every run). AFCT/throughput/loss
	// series are identical to stored runs; P50/P99 and CDF series are
	// within SketchEps.
	Stream bool
	// SketchEps bounds the streaming quantile sketch's relative error
	// (0 = the metrics package default, 0.005).
	SketchEps float64
	// Shards runs every simulation point on this many engine shards
	// synchronized by conservative lookahead (0 or 1 = serial; results
	// byte-identical at every setting). Combines multiplicatively with
	// Parallelism: a pooled figure runs up to Parallelism × Shards
	// goroutines at once, so budget cores accordingly.
	Shards int
	// Trace runs every simulation point with the span flight recorder
	// attached. Figure grids keep only scalar series per point, so the
	// recorded spans themselves are dropped — but the recorder's
	// retention counters (trace/*) and PASE's per-level arbitration RTT
	// histograms (arb/rtt/*) appear in the merged Obs snapshot and run
	// Manifest. Usually combined with Obs.
	Trace bool
	// TraceSampleN keeps 1-in-N flow traces when Trace is set (0 or
	// 1 = every flow). Violating or faulted flows are always kept.
	TraceSampleN int
	// Ctrl forces every PASE point of the figure onto one control
	// plane: "central" runs the single-controller arm, "" or
	// "hierarchy" the default arbitration hierarchy. Figures that
	// sweep both arms themselves (ctrlscale) ignore it.
	Ctrl string
	// Racks caps the ctrlscale figure's rack sweep (0 = the full
	// 16 → 2048 sweep). Other figures ignore it.
	Racks int
}

// checkRacks rejects a ctrlscale rack count above the ceiling, naming
// the field it came in by.
func checkRacks(field string, racks int) error {
	if racks > experiments.CtrlScaleMaxRacks {
		return fmt.Errorf("pase: %s asks for %d ctrlscale racks, at most %d are supported", field, racks, experiments.CtrlScaleMaxRacks)
	}
	return nil
}

// expOpts maps the public options onto the experiment runner's.
func expOpts(o FigureOpts) experiments.Opts {
	return experiments.Opts{NumFlows: o.NumFlows, Seed: o.Seed, Seeds: o.Seeds,
		Loads: o.Loads, Parallelism: o.Parallelism, Obs: o.Obs, Check: o.Check,
		Faults: o.Faults, Progress: o.Progress,
		Stream: o.Stream, SketchEps: o.SketchEps, Shards: o.Shards,
		Ctrl: o.Ctrl, Racks: o.Racks,
		Trace: experiments.TraceConfig{Spans: o.Trace, SampleN: o.TraceSampleN}}
}

// FigureSeries is one curve of a regenerated figure.
type FigureSeries struct {
	Name string
	X    []float64
	Y    []float64
}

// FigureData is a regenerated table/figure from the paper.
type FigureData struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []FigureSeries
	Notes  []string

	// Points counts the simulation points behind the figure; Retx and
	// Timeouts total their retransmission activity. All zero for the
	// analytic figures that run no simulations.
	Points   int
	Retx     int64
	Timeouts int64
	// Violations totals invariant breaches across every point (always
	// 0 unless FigureOpts.Check or PASE_CHECK enabled the checker).
	Violations int64

	raw *experiments.Result
}

// Render formats the figure as aligned text columns.
func (f *FigureData) Render() string { return f.raw.Render() }

// WriteTSV writes the figure as tab-separated values for plotting.
func (f *FigureData) WriteTSV(w io.Writer) error { return f.raw.WriteTSV(w) }

// Snapshot returns the merged observability snapshot of every
// simulation point (nil unless FigureOpts.Obs was set).
func (f *FigureData) Snapshot() *Snapshot { return f.raw.Obs }

// FigureInfo describes one reproducible experiment.
type FigureInfo struct {
	ID    string
	Title string
}

// ListFigures enumerates every table/figure the harness regenerates.
func ListFigures() []FigureInfo {
	var out []FigureInfo
	for _, f := range experiments.Figures {
		out = append(out, FigureInfo{ID: f.ID, Title: f.Title})
	}
	return out
}

// RunFigure regenerates one figure by ID ("1", "2", "3", "4", "9a" …
// "13b", "probing").
func RunFigure(id string, opts FigureOpts) (*FigureData, error) {
	fig, ok := experiments.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("pase: unknown figure %q (see ListFigures)", id)
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("pase: %w", err)
	}
	if err := checkRacks("Racks", opts.Racks); err != nil {
		return nil, err
	}
	res := fig.Run(expOpts(opts))
	out := &FigureData{
		ID: res.ID, Title: res.Title,
		XLabel: res.XLabel, YLabel: res.YLabel,
		Notes:  res.Notes,
		Points: res.Points, Retx: res.Retx, Timeouts: res.Timeouts,
		Violations: res.Violations,
		raw:        res,
	}
	for _, s := range res.Series {
		out.Series = append(out.Series, FigureSeries{Name: s.Name, X: s.X, Y: s.Y})
	}
	return out, nil
}

// NewRunManifest assembles the reproducibility manifest for a figure
// run: parameters, git revision, wall-clock cost and the merged
// observability snapshot. Write it next to the figure's TSV.
func NewRunManifest(tool string, fig *FigureData, opts FigureOpts, started time.Time, wall time.Duration) *Manifest {
	return experiments.NewManifest(tool, fig.raw, expOpts(opts), started, wall)
}

// NewSimManifest assembles the run manifest for one or more Simulate /
// SimulateSeeds reports of the same configuration: run parameters,
// merged snapshot and retransmission totals.
func NewSimManifest(tool string, cfg SimConfig, reps []*Report, parallelism int, started time.Time, wall time.Duration) *Manifest {
	m := experiments.NewManifest(tool, nil, experiments.Opts{
		NumFlows: cfg.NumFlows, Seed: cfg.Seed, Seeds: len(reps),
		Loads: []float64{cfg.Load}, Parallelism: parallelism,
		Faults: cfg.Faults, Stream: cfg.Stream, SketchEps: cfg.SketchEps,
		Shards: cfg.Shards,
	}, started, wall)
	m.Title = fmt.Sprintf("%s / %s @ load %g", cfg.Protocol, cfg.Scenario, cfg.Load)
	snaps := make([]*Snapshot, len(reps))
	for i, r := range reps {
		snaps[i] = r.Obs
		m.Retx += r.Retransmits
		m.Timeouts += r.Timeouts
	}
	m.Points = len(reps)
	m.Snapshot = MergeSnapshots(snaps)
	return m
}
