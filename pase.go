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
	"reflect"
	"slices"
	"time"

	"pase/internal/experiments"
	"pase/internal/faults"
	"pase/internal/obs"
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
type Protocol = experiments.Protocol

// The transports implemented in this repository.
const (
	ProtocolDCTCP   = experiments.DCTCP
	ProtocolD2TCP   = experiments.D2TCP
	ProtocolL2DCT   = experiments.L2DCT
	ProtocolPFabric = experiments.PFabric
	ProtocolPDQ     = experiments.PDQ
	ProtocolPASE    = experiments.PASE
	// ProtocolExpressPass is the credit-based transport of Cho et al.
	// (SIGCOMM 2017).
	ProtocolExpressPass = experiments.ExpressPass
)

// Protocols lists every available transport.
func Protocols() []Protocol { return slices.Clone(experiments.Protocols) }

// Scenario selects one of the paper's evaluation settings; the
// constants' definitions in package experiments describe each fabric
// and workload.
type Scenario = experiments.Scenario

// The paper's scenarios (§4) and the extensions.
const (
	ScenarioLeftRight        = experiments.LeftRight
	ScenarioIntraRack        = experiments.IntraRack
	ScenarioIntraRackLarge   = experiments.IntraRackLarge
	ScenarioWorkerAgg        = experiments.WorkerAgg
	ScenarioDeadline         = experiments.Deadline
	ScenarioTestbed          = experiments.Testbed
	ScenarioLeafSpine        = experiments.LeafSpine
	ScenarioLeafSpineWide    = experiments.LeafSpineWide
	ScenarioTEFailover       = experiments.TEFailover
	ScenarioHighspeed10      = experiments.Highspeed10
	ScenarioHighspeed40      = experiments.Highspeed40
	ScenarioHighspeed100     = experiments.Highspeed100
	ScenarioHighspeedShallow = experiments.HighspeedShallow
	ScenarioIncast64         = experiments.Incast64
	ScenarioIncast256        = experiments.Incast256
	// ScenarioCtrlScale is the 64-rack member of the control-plane-at-
	// scale family; Scenario("ctrlscale-<racks>") picks any other.
	ScenarioCtrlScale = experiments.CtrlScale
)

// Scenarios lists every named scenario.
func Scenarios() []Scenario { return experiments.Scenarios() }

// SimConfig describes one simulation run. It is the experiment
// runner's own configuration: Protocol, Scenario, Load, Seed and
// NumFlows pick the point, and the remaining fields switch on
// observability, invariant checking, tracing, faults, routing control,
// streaming and sharding.
type SimConfig = experiments.PointConfig

// PASEOptions toggle PASE's internal mechanisms (ablations).
type PASEOptions = experiments.PASEOptions

// TraceConfig selects a run's flow-event, queue-occupancy and span
// tracing.
type TraceConfig = experiments.TraceConfig

// Trace is what a run's flight recording retains, every track in
// canonical order: Ctrl, Queue and Route, with Stats counting what was
// written and what the retention caps shed. WriteQueueSamples writes
// the queue TSV, and Digest hashes the canonical content, the flow
// traces written included. The flow tracks go to the writers in
// SimConfig.Trace while the run goes: flow events as TSV, and the
// Chrome/Perfetto JSON view (flows as spans, arbitration exchanges as
// spans with flow arrows, queues as counter tracks) for
// https://ui.perfetto.dev.
type Trace = trace.RunTrace

// Duration is simulated time in nanoseconds; convert a time.Duration
// with Duration(d).
type Duration = sim.Duration

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

// Report is the outcome of one simulation run: the runner's own
// result. The flow summary's fields (Flows, Completed, Aborted, AFCT,
// P50, P99, AppThroughput, DeadlineFlows, Retransmits, Timeouts) read
// as its own, beside LossRate, CtrlMessages, the FCT CDF, the per-flow
// Records (empty for Stream runs), the Obs snapshot, the invariant
// Violations and CheckViolations, ShardFallback and the Trace.
type Report = experiments.PointResult

// validate is the one check of what Simulate and RunFigure both take
// in, naming the offending field: every load in (0, 1], no negative
// flow, seed or rack count, a valid fault plan and a ctrlscale rack
// count within the ceiling. Simulate passes its config as a one-load
// Opts.
func validate(o FigureOpts, loadField, racksField string) error {
	for _, l := range o.Loads {
		if !(l > 0 && l <= 1) {
			return fmt.Errorf("pase: %s must be in (0, 1], got %v", loadField, l)
		}
	}
	if o.NumFlows < 0 {
		return fmt.Errorf("pase: NumFlows must not be negative, got %d", o.NumFlows)
	}
	if o.Seeds < 0 {
		return fmt.Errorf("pase: Seeds must not be negative, got %d", o.Seeds)
	}
	if err := o.Faults.Validate(); err != nil {
		return fmt.Errorf("pase: %w", err)
	}
	if o.Racks < 0 {
		return fmt.Errorf("pase: %s must not be negative, got %d", racksField, o.Racks)
	}
	if o.Racks > experiments.CtrlScaleMaxRacks {
		return fmt.Errorf("pase: %s asks for %d ctrlscale racks, at most %d are supported", racksField, o.Racks, experiments.CtrlScaleMaxRacks)
	}
	return nil
}

// normalize validates cfg and fills defaults.
func normalize(cfg SimConfig) (SimConfig, error) {
	o := FigureOpts{Loads: []float64{cfg.Load}, NumFlows: cfg.NumFlows, Faults: cfg.Faults,
		Racks: experiments.CtrlScaleRacksOf(cfg.Scenario)}
	if err := validate(o, "Load", "Scenario"); err != nil {
		return cfg, err
	}
	if cfg.Trace.SampleN < 0 {
		return cfg, fmt.Errorf("pase: Trace.SampleN must not be negative, got %d", cfg.Trace.SampleN)
	}
	if cfg.Trace.QueueSample < 0 {
		return cfg, fmt.Errorf("pase: Trace.QueueSample must not be negative, got %v", cfg.Trace.QueueSample)
	}
	if q := cfg.PASE.NumQueues; q != 0 && (q < 2 || q > 127) {
		// Below 2 there is no class to demote into; above 127 the int8
		// queue index of a Decision wraps.
		return cfg, fmt.Errorf("pase: PASE.NumQueues must be 0 (default) or in [2, 127], got %d", q)
	}
	if f := cfg.PASE.HierFanOut; f != 0 && f < 2 {
		// A fan-out of 1 groups nothing and would switch the tree off.
		return cfg, fmt.Errorf("pase: PASE.HierFanOut must be 0 (scenario default) or at least 2, got %d", f)
	}
	if cfg.PASE.HierTopShards < 0 {
		return cfg, fmt.Errorf("pase: PASE.HierTopShards must not be negative, got %d", cfg.PASE.HierTopShards)
	}
	if cfg.AbortAfter < 0 {
		return cfg, fmt.Errorf("pase: AbortAfter must not be negative, got %v", cfg.AbortAfter)
	}
	if cfg.Protocol == "" {
		cfg.Protocol = ProtocolPASE
	}
	if cfg.Scenario == "" {
		cfg.Scenario = ScenarioIntraRack
	}
	if !slices.Contains(experiments.Protocols, cfg.Protocol) {
		return cfg, fmt.Errorf("pase: unknown protocol %q", cfg.Protocol)
	}
	if !experiments.KnownScenario(cfg.Scenario) {
		return cfg, fmt.Errorf("pase: unknown scenario %q", cfg.Scenario)
	}
	if cfg.Reroute && !experiments.Reroutable(cfg.Scenario) {
		return cfg, fmt.Errorf("pase: Reroute needs a leaf-spine Scenario; %q has no route tables to reroute", cfg.Scenario)
	}
	if p := reflect.ValueOf(cfg.PASE); cfg.Protocol != ProtocolPASE && !p.IsZero() {
		for i := range p.NumField() {
			if !p.Field(i).IsZero() {
				return cfg, fmt.Errorf("pase: PASE.%s is a PASE option; protocol %q cannot take it", p.Type().Field(i).Name, cfg.Protocol)
			}
		}
	}
	if p := cfg.PASE; p.Central || p.LocalOnly {
		// The central arm arbitrates whole paths in one exchange and the
		// local one the access links alone: neither has a hierarchy to
		// shape, prune, delegate or cut short.
		arm := "LocalOnly"
		if p.Central {
			arm = "Central"
		}
		set := []bool{p.Central && p.LocalOnly, p.NoPruning, p.NoDelegation, p.HierFanOut != 0, p.HierTopShards != 0}
		if i := slices.Index(set, true); i >= 0 {
			field := []string{"LocalOnly", "NoPruning", "NoDelegation", "HierFanOut", "HierTopShards"}[i]
			return cfg, fmt.Errorf("pase: PASE.%s runs no arbitration hierarchy, so it cannot take PASE.%s", arm, field)
		}
	}
	if cfg.PASE.TaskAware && !experiments.CarriesTasks(cfg.Scenario) {
		return cfg, fmt.Errorf("pase: PASE.TaskAware orders tasks, and scenario %q carries none", cfg.Scenario)
	}
	if p := cfg.PASE; p.HierTopShards != 0 && p.HierFanOut == 0 && !experiments.DeepHierarchy(cfg.Scenario) {
		return cfg, fmt.Errorf("pase: PASE.HierTopShards shards a deep hierarchy's root, and scenario %q runs the flat climb unless PASE.HierFanOut is set", cfg.Scenario)
	}
	return cfg, nil
}

// Validate reports the first field of cfg that Simulate would reject,
// without running anything.
func Validate(cfg SimConfig) error {
	_, err := normalize(cfg)
	return err
}

// Simulate runs one simulation point.
func Simulate(cfg SimConfig) (*Report, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	r := experiments.RunPoint(cfg)
	return &r, nil
}

// SimulateSeeds runs the same configuration across consecutive
// workload seeds (cfg.Seed, cfg.Seed+1, …) on a bounded worker pool
// and returns one Report per seed, in seed order. parallelism <= 0
// uses one worker per CPU; 1 runs serially. Each report is identical
// to what Simulate would return for that seed — parallelism only
// changes wall-clock time. progress, if set, is called after each
// seed's run with (done, total), possibly concurrently from worker
// goroutines.
func SimulateSeeds(cfg SimConfig, seeds, parallelism int, progress func(done, total int)) ([]*Report, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	if seeds > 1 && (cfg.Trace.FlowLogWriter != nil || cfg.Trace.SpanWriter != nil) {
		// The seeds run concurrently and would interleave in one writer.
		return nil, fmt.Errorf("pase: Trace writers trace one run; %d seeds cannot share them", seeds)
	}
	cfgs := make([]SimConfig, max(seeds, 1))
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = cfg.Seed + uint64(i)
	}
	reps := make([]*Report, len(cfgs))
	res := experiments.RunPoints(cfgs, parallelism, progress)
	for i := range res {
		reps[i] = &res[i]
	}
	return reps, nil
}

// FigureOpts scale a figure regeneration run: flows, seeds and loads
// per point, parallelism, the observability, checking, fault,
// streaming and sharding switches applied to every point, and Ctrl and
// Racks, which narrow the ctrlscale sweep.
type FigureOpts = experiments.Opts

// FigureSeries is one curve of a regenerated figure.
type FigureSeries = experiments.Series

// FigureData is a regenerated table/figure from the paper: its series,
// notes and point totals, with Render and WriteTSV for output and Obs
// holding the merged snapshot of every point (nil unless
// FigureOpts.Obs was set).
type FigureData = experiments.Result

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

// ValidateFigure reports why RunFigure would reject figure id with
// opts, without running anything: an unknown id, a field out of range,
// Stream on a figure that reads per-flow records, Seeds above one on a
// figure that plots one run per arm, two or more Loads on a figure that
// sweeps no load, Racks on a figure that sweeps no racks, or a Ctrl
// that names none of its control-plane arms.
func ValidateFigure(id string, opts FigureOpts) error {
	fig, ok := experiments.Lookup(id)
	if !ok {
		return fmt.Errorf("pase: unknown figure %q (see ListFigures)", id)
	}
	if err := validate(opts, "Loads", "Racks"); err != nil {
		return err
	}
	if err := fig.Check(opts); err != nil {
		return fmt.Errorf("pase: %w", err)
	}
	return nil
}

// RunFigure regenerates one figure by ID ("1", "2", "3", "4", "9a" …
// "13b", "probing", …; see ListFigures).
func RunFigure(id string, opts FigureOpts) (*FigureData, error) {
	if err := ValidateFigure(id, opts); err != nil {
		return nil, err
	}
	fig, _ := experiments.Lookup(id)
	return fig.Run(opts), nil
}

// NewRunManifest assembles the reproducibility manifest for a figure
// run: the options it ran with (the figure's defaults filled in), git
// revision, wall-clock cost and the merged observability snapshot.
// Write it next to the figure's TSV.
func NewRunManifest(tool string, fig *FigureData, started time.Time, wall time.Duration) *Manifest {
	return experiments.NewManifest(tool, fig, FigureOpts{}, started, wall)
}

// NewSimManifest assembles the run manifest for one or more Simulate /
// SimulateSeeds reports of the same configuration: run parameters,
// merged snapshot and retransmission totals.
func NewSimManifest(tool string, cfg SimConfig, reps []*Report, parallelism int, started time.Time, wall time.Duration) *Manifest {
	m := experiments.NewManifest(tool, nil, FigureOpts{
		NumFlows: cfg.NumFlows, Seed: cfg.Seed, Seeds: len(reps),
		Loads: []float64{cfg.Load}, Parallelism: parallelism,
		Faults: cfg.Faults, Stream: cfg.Stream, Shards: cfg.Shards,
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
