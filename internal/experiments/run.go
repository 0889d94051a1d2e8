package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"pase/internal/check"
	"pase/internal/core/arbitration"
	"pase/internal/core/endhost"
	"pase/internal/faults"
	"pase/internal/metrics"
	"pase/internal/netem"
	"pase/internal/obs"
	"pase/internal/pkt"
	"pase/internal/route"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/trace"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
	"pase/internal/transport/expresspass"
	"pase/internal/transport/pdq"
	"pase/internal/transport/pfabric"
	"pase/internal/workload"
)

// Protocol names a transport under evaluation.
type Protocol string

// The protocols compared in the paper.
const (
	DCTCP   Protocol = "DCTCP"
	D2TCP   Protocol = "D2TCP"
	L2DCT   Protocol = "L2DCT"
	PFabric Protocol = "pFabric"
	PDQ     Protocol = "PDQ"
	PASE    Protocol = "PASE"
	// ExpressPass is the credit-based seventh transport (Cho et al.,
	// SIGCOMM 2017): receiver-paced credits, switch credit shaping,
	// data queues bounded by construction.
	ExpressPass Protocol = "ExpressPass"
)

// Protocols lists every transport, in the order the façade and the
// CLI help list them.
var Protocols = []Protocol{DCTCP, D2TCP, L2DCT, PFabric, PDQ, PASE, ExpressPass}

// Scenario names an evaluation setting from §4.
type Scenario string

// The paper's scenarios.
const (
	// LeftRight: baseline 3-tier fabric, 80 left-subtree hosts send to
	// 80 right-subtree hosts; the agg-core link is the bottleneck.
	LeftRight Scenario = "left-right"
	// IntraRack: 20-host single rack, all-to-all, short flows
	// U[2,198] KB.
	IntraRack Scenario = "intra-rack"
	// IntraRackLarge: 20-host single rack, U[100,500] KB (Fig 2, 13a).
	IntraRackLarge Scenario = "intra-rack-large"
	// WorkerAgg: the search-style all-to-all of Figures 4 and 10c —
	// every query triggers simultaneous responses from 10 random
	// workers to one aggregator (aggregators round-robin), responses
	// U[2,198] KB.
	WorkerAgg Scenario = "worker-agg"
	// Deadline: 20-host single rack, U[100,500] KB with 5–25 ms
	// deadlines (the D2TCP experiment the paper replicates).
	Deadline Scenario = "deadline"
	// Testbed: 10 nodes, 9 clients → 1 server, 1 Gbps, 250 µs RTT,
	// K = 20, 100-pkt queues (§4.4).
	Testbed Scenario = "testbed"
	// LeafSpine: extension — a 4-leaf × 2-spine multipath fabric with
	// per-flow ECMP; flows cross leaves (short-message workload).
	LeafSpine Scenario = "leaf-spine"
	// LeafSpineWide: a wider 8-leaf × 4-spine fabric (80 hosts,
	// 12 partition atoms) used by the sharded-engine benchmarks — enough
	// atoms that -shards 8 still gets distinct work per shard.
	LeafSpineWide Scenario = "leaf-spine-wide"
	// TEFailover: a 4-leaf × 3-spine fabric (non-power-of-two spine
	// count, so the ECMP hash and detour scan run off the easy modulus)
	// for the routing-control-loop experiments: chaos plans down
	// leaf↔spine links mid-run and reactive rerouting keeps flows
	// alive.
	TEFailover Scenario = "te-failover"
	// The highspeed family: scenarios the paper never had, where
	// credit-based and window/arbitration-based control diverge most.
	// Highspeed10/40/100 sweep a single-rack all-to-all fabric across
	// 10/40/100 Gbps link rates; HighspeedShallow is the 100 Gbps
	// point with shallow (64-packet) switch buffers; Incast64 and
	// Incast256 converge that many senders on one receiver's 100 Gbps
	// access link.
	Highspeed10      Scenario = "highspeed-10"
	Highspeed40      Scenario = "highspeed-40"
	Highspeed100     Scenario = "highspeed-100"
	HighspeedShallow Scenario = "highspeed-shallow"
	Incast64         Scenario = "incast-64"
	Incast256        Scenario = "incast-256"
	// CtrlScale is the control-plane-at-scale family: "ctrlscale" is
	// the 64-rack default and "ctrlscale-<racks>" picks the rack count
	// (up to CtrlScaleMaxRacks; the ctrlscale figure sweeps 16 → 2048).
	// A fixed aggregate workload spreads all-to-all over a growing
	// fabric, so the data plane's job stays comparable while the
	// control plane's span grows — the axis the figure measures. PASE
	// runs the deep hierarchy here by default (fan-out 4, sharded root).
	CtrlScale Scenario = "ctrlscale"
)

// PASEOptions toggle PASE's internal mechanisms (ablations);
// pase.Validate rejects any of them set on another protocol.
type PASEOptions struct {
	LocalOnly      bool // Fig 12a: arbitrate the hosts' access links only
	NoPruning      bool // Fig 11: disable early pruning (§3.1.2)
	NoDelegation   bool // Fig 11: disable delegation (§3.1.2)
	NumQueues      int  // Fig 12b: switch priority queues (0 = 8; else 2 to 127)
	DisableRefRate bool // Fig 13a: ignore the reference rate (PASE-DCTCP)
	DisableProbing bool // §4.3.2: no probe-based loss recovery
	// TaskAware swaps the scheduling criterion from remaining size to
	// task id for task-carrying flows (Baraat-style FIFO; §3.1.1).
	TaskAware bool
	// Central swaps the arbitration hierarchy for the fully
	// centralized comparison arm: one controller behind the core
	// computes whole-path allocations in a single serialized exchange
	// (Shah & Xie-style). Neither it nor LocalOnly runs a hierarchy,
	// so pase.Validate rejects either with NoPruning, NoDelegation,
	// HierFanOut or HierTopShards, and the two together.
	Central bool
	// HierFanOut / HierTopShards override the scenario's deep-
	// hierarchy shape — aggregation-tree fan-out and replicated root
	// shards (0 = scenario default; most scenarios default to the
	// classic flat 3-tier climb, ctrlscale to fan-out 4, 2 shards).
	// pase.Validate rejects HierTopShards on a flat-climb scenario
	// without HierFanOut, and TaskAware on a scenario without tasks.
	HierFanOut    int
	HierTopShards int
}

// TraceConfig selects optional per-point tracing: which tracks of the
// run's one recorder are on. The flow tracks stream to their writers as
// the run goes; the retained tracks are PointResult.Trace, each keeping
// its newest records up to the trace package's Default*Cap, with what a
// cap sheds counted in Trace.Stats. The output is byte-identical
// stored or streamed.
type TraceConfig struct {
	// QueueSample, when positive, samples every queue's occupancy at
	// this interval (Trace.WriteQueueSamples).
	QueueSample sim.Duration
	// SampleN keeps 1 in N flow traces (0 or 1 = every flow),
	// seed-driven so re-runs trace the same flows. Flows that
	// misbehaved — retransmissions, timeouts, fallback, abort — are
	// always kept regardless of the draw.
	SampleN int
	// FlowLogWriter, when set, records flow start/done/abort events
	// and writes them to it as canonical TSV.
	FlowLogWriter io.Writer
	// SpanWriter, when set, records the span tracks — per-flow
	// lifecycle spans (wait-for-control, transmission epochs per
	// priority queue, retx/timeout/fallback marks) plus control-plane
	// exchange spans and route events — and writes them to it as
	// Chrome/Perfetto trace-event JSON, with the queue samples as
	// counter tracks.
	SpanWriter io.Writer
}

// Enabled reports whether any tracing is requested.
func (t TraceConfig) Enabled() bool {
	return t.FlowLogWriter != nil || t.QueueSample > 0 || t.SpanWriter != nil
}

// PointConfig is one (protocol, scenario, load) simulation — the one
// run configuration, which the pase façade exposes as SimConfig.
type PointConfig struct {
	Protocol Protocol
	Scenario Scenario
	// Load is the offered load in (0, 1] relative to the scenario's
	// bottleneck capacity.
	Load float64
	// Seed makes runs reproducible; equal seeds give identical runs.
	Seed uint64
	// NumFlows is the number of foreground flows (0 = DefaultFlows).
	NumFlows int
	// PASE holds the PASE ablation switches.
	PASE PASEOptions
	// Obs attaches an observability Registry to the run and returns
	// its Snapshot in the result. Off, the hot path costs nil checks.
	Obs bool
	// Check attaches the runtime invariant checker to the run: queue
	// conservation/capacity/ordering, ECN marking, arbitration
	// feasibility, clock monotonicity and FCT lower bounds are all
	// verified, and violations land in PointResult (plus the obs
	// snapshot when Obs is also set). The PASE_CHECK environment
	// variable force-enables this for every run.
	Check bool
	// Trace selects flow-event, queue-occupancy and span tracing.
	Trace TraceConfig
	// Faults is the run's fault-injection plan. Nil or empty leaves the
	// run byte-identical to a fault-free one (the injector is never
	// built and the fault RNG stream is never created).
	Faults *faults.Plan
	// Reroute detours leaf-spine traffic around the fabric links the
	// fault plan takes down (Reroutable scenarios only). Off, routing
	// stays frozen at the build-time ECMP hash and the run is
	// byte-identical to one before the control loop existed.
	Reroute bool
	// AbortAfter, when positive, makes every sender abort its flow
	// after this much time without forward progress (new data acked).
	// Aborted flows are excluded from AFCT and reported separately in
	// the Summary. Zero disables aborts.
	AbortAfter sim.Duration
	// Stream picks the bounded-memory sink: flow records land in a
	// metrics.StreamCollector, so — arrivals being pulled from
	// workload.Spec.Stream one at a time and flow state recycled in
	// every run — memory is O(in-flight flows) instead of O(NumFlows).
	// Flows, Completed, AFCT, MaxFCT, Retx and Timeouts are exactly the
	// stored-mode values; P50/P99 and the CDF are within the sketch's
	// ε, metrics.DefaultSketchEps. Records (per-flow outcomes) are not
	// retained.
	Stream bool
	// Shards splits the single run across this many engine shards
	// synchronized by conservative lookahead (0 or 1 = serial).
	// Results are byte-identical to serial at every shard count.
	// Protocols with fabric-synchronous control planes (PASE, PDQ),
	// traced and faulted runs, and single-atom fabrics run on
	// the serial engine instead: PointResult.ShardFallback names the
	// reason (and, when Obs is set, so does the shard/fallback_serial
	// counter).
	Shards int
}

// PointResult is what one simulation yields: the flow Summary (counts,
// AFCT, P50, P99, application throughput, retransmits, timeouts),
// whose fields read as the result's own, and the fabric-wide counts.
type PointResult struct {
	metrics.Summary
	// LossRate is dropped data packets over data enqueue attempts
	// across every queue in the fabric.
	LossRate float64
	// CtrlMessages counts arbitration (PASE), header-exchange (PDQ) or
	// credit-plane (ExpressPass) control messages.
	CtrlMessages int64
	CDF          []metrics.CDFPoint
	Queues       netem.QueueStats
	// Records holds the per-flow outcomes of the run.
	Records []metrics.FlowRecord
	// Obs is the run's observability snapshot (nil unless
	// PointConfig.Obs was set).
	Obs *obs.Snapshot
	// Violations counts invariant breaches observed by the checker
	// (always 0 unless PointConfig.Check or PASE_CHECK was set — and 0
	// then too unless the simulator is broken); CheckViolations holds
	// the retained details.
	Violations      int64
	CheckViolations []check.Violation
	// Trace is what the run's recording retains — control spans,
	// queue samples and route events in canonical order, meta, and
	// Stats counting what the recorder wrote, kept and shed (nil unless
	// a TraceConfig track was on). The flow events and traces have
	// already streamed to their writers.
	Trace *trace.RunTrace
	// ShardFallback names why a PointConfig.Shards > 1 request ran on
	// the serial engine: "pase", "pdq", "trace", "faults" or
	// "single_atom"; "" when the run sharded or no sharding was asked
	// for.
	ShardFallback string
}

// scenarioSpec bundles what a scenario needs.
type scenarioSpec struct {
	// fabric is the scenario's tree or leaf-spine (Spines > 0); the
	// runner fills in its queue factory and shard hooks.
	fabric    topology.Config
	pattern   workload.Pattern
	sizes     workload.SizeDist
	reference netem.BitRate
	deadlines bool
	fanin     int
	bgFlows   int
	markK     int // ECN threshold
	qSize     int // DCTCP-family / PASE buffer scale
	epoch     sim.Duration
	// hier is the deep arbitration hierarchy PASE uses on this
	// scenario (zero = classic flat 3-tier climb).
	hier arbitration.HierarchyParams
	// flows, when set, is the whole foreground workload, run in place
	// of the Poisson stream the fields above describe.
	flows []workload.FlowSpec
}

// teFailoverLS is the te-failover fabric. The te figure's fault
// plans compute link IDs from it, so they read the scenario's own.
func teFailoverLS() topology.Config {
	sp, _ := lookupScenario(TEFailover)
	return sp.fabric
}

type scenarioEntry struct {
	name Scenario
	spec scenarioSpec
}

// scenarioTable is every named scenario, in the order the façade and
// the CLI help list them; the ctrlscale family's "ctrlscale-<racks>"
// members parse separately (CtrlScaleRacksOf).
var scenarioTable = []scenarioEntry{
	{LeftRight, scenarioSpec{
		fabric:    topology.Baseline(nil),
		pattern:   workload.LeftRight{Left: workload.HostRange(0, 80), Right: workload.HostRange(80, 160)},
		sizes:     workload.UniformSize{Min: ShortFlowMin, Max: ShortFlowMax},
		reference: leftRightReference,
		bgFlows:   BackgroundFlows,
		markK:     MarkingThreshold,
		qSize:     DCTCPQueueSize,
		epoch:     300 * sim.Microsecond,
	}},
	{IntraRack, intraRackSpec(ShortFlowMin, ShortFlowMax, 0, false)},
	{IntraRackLarge, intraRackSpec(DeadlineFlowMin, DeadlineFlowMax, 0, false)},
	{WorkerAgg, intraRackSpec(ShortFlowMin, ShortFlowMax, WorkerFanin, false)},
	{Deadline, intraRackSpec(DeadlineFlowMin, DeadlineFlowMax, 0, true)},
	{Testbed, scenarioSpec{
		fabric:    topology.Testbed(nil),
		pattern:   workload.LeftRight{Left: workload.HostRange(0, 9), Right: []pkt.NodeID{9}},
		sizes:     workload.UniformSize{Min: DeadlineFlowMin, Max: DeadlineFlowMax},
		reference: netem.Gbps, // the server's access link
		bgFlows:   1,
		markK:     20,
		qSize:     100,
		epoch:     250 * sim.Microsecond,
	}},
	{LeafSpine, leafSpineSpec(4, 2)},
	{LeafSpineWide, leafSpineSpec(8, 4)},
	{TEFailover, leafSpineSpec(4, 3)}, // three spines: ECMP off the easy modulus
	{Highspeed10, highspeedSpec(10*netem.Gbps, HighspeedHosts, DCTCPQueueSize, MarkingThreshold)},
	{Highspeed40, highspeedSpec(40*netem.Gbps, HighspeedHosts, 4*DCTCPQueueSize, 4*MarkingThreshold)},
	{Highspeed100, highspeedSpec(100*netem.Gbps, HighspeedHosts, 10*DCTCPQueueSize, 10*MarkingThreshold)},
	{HighspeedShallow, highspeedSpec(100*netem.Gbps, HighspeedHosts, ShallowQueueSize, ShallowMarkK)},
	{Incast64, incastSpec(64, 100*netem.Gbps)},
	{Incast256, incastSpec(256, 100*netem.Gbps)},
	{CtrlScale, ctrlScaleSpec(CtrlScaleDefaultRacks)},
}

// Scenarios lists every named scenario in table order.
func Scenarios() []Scenario {
	out := make([]Scenario, len(scenarioTable))
	for i, e := range scenarioTable {
		out[i] = e.name
	}
	return out
}

// KnownScenario reports whether s names a scenario: a table entry or
// a "ctrlscale-<racks>" family member.
func KnownScenario(s Scenario) bool {
	return slices.ContainsFunc(scenarioTable, func(e scenarioEntry) bool { return e.name == s }) ||
		CtrlScaleRacksOf(s) > 0
}

// Reroutable reports whether s runs on a leaf-spine fabric, whose
// route tables Reroute edits; a tree fabric routes single-path and has
// nothing to reroute.
func Reroutable(s Scenario) bool {
	sp, ok := lookupScenario(s)
	return ok && sp.fabric.Spines > 0
}

// CarriesTasks reports whether s's workload groups flows into tasks,
// the only flows PASEOptions.TaskAware reorders: a query's worker
// responses, on a scenario whose fan-in is above one.
func CarriesTasks(s Scenario) bool {
	sp, ok := lookupScenario(s)
	return ok && sp.fanin > 1
}

// DeepHierarchy reports whether PASE runs a deep arbitration hierarchy
// on s by default, whose root PASEOptions.HierTopShards shards.
func DeepHierarchy(s Scenario) bool {
	sp, ok := lookupScenario(s)
	return ok && sp.hier.Enabled()
}

// toy is Figure 3's example, which no CLI offers: one rack, hosts
// {0: src1, 1: src2, 2: dst1, 3: dst2}. Flow 1 (src1→dst1, 0.5 MB) is
// most urgent, flow 2 (src2→dst1, 0.75 MB) medium, flow 3 (src2→dst2,
// 1 MB) least. Flows 1 and 2 share dst1's downlink, flows 2 and 3
// src2's uplink; flows 1 and 3 are link-disjoint.
const toy Scenario = "toy"

var toySpec = scenarioSpec{
	fabric: topology.SingleRack(4, nil),
	flows: []workload.FlowSpec{
		{ID: 1, Src: 0, Dst: 2, Size: 500_000},
		{ID: 2, Src: 1, Dst: 2, Size: 750_000},
		{ID: 3, Src: 1, Dst: 3, Size: 1_000_000},
	},
	markK: MarkingThreshold,
	qSize: DCTCPQueueSize,
	epoch: 100 * sim.Microsecond,
}

func lookupScenario(s Scenario) (scenarioSpec, bool) {
	if s == toy {
		return toySpec, true
	}
	for _, e := range scenarioTable {
		if e.name == s {
			return e.spec, true
		}
	}
	if racks := CtrlScaleRacksOf(s); racks > 0 {
		return ctrlScaleSpec(racks), true
	}
	return scenarioSpec{}, false
}

// intraRackSpec is the 20-host single rack, all-to-all, with flow
// sizes U[minSize, maxSize], worker fan-in and deadlines as given.
func intraRackSpec(minSize, maxSize int64, fanin int, deadlines bool) scenarioSpec {
	return scenarioSpec{
		fabric:    topology.SingleRack(IntraRackHosts, nil),
		pattern:   workload.AllToAll{Hosts: workload.HostRange(0, IntraRackHosts)},
		sizes:     workload.UniformSize{Min: minSize, Max: maxSize},
		reference: intraRackReference(IntraRackHosts),
		deadlines: deadlines,
		fanin:     fanin,
		bgFlows:   BackgroundFlows,
		markK:     MarkingThreshold,
		qSize:     DCTCPQueueSize,
		epoch:     100 * sim.Microsecond,
	}
}

// leafSpineSpec builds the all-to-all short-message scenario on
// DefaultLeafSpine resized to leaves × spines (per-flow ECMP; flows
// cross leaves).
func leafSpineSpec(leaves, spines int) scenarioSpec {
	ls := topology.DefaultLeafSpine(nil)
	ls.Racks, ls.Spines = leaves, spines
	hosts := ls.Racks * ls.HostsPerRack
	return scenarioSpec{
		fabric:  ls,
		pattern: workload.AllToAll{Hosts: workload.HostRange(0, hosts)},
		sizes:   workload.UniformSize{Min: ShortFlowMin, Max: ShortFlowMax},
		// Load is defined against the total leaf-spine fabric
		// capacity actually reachable by edge-limited hosts.
		reference: netem.BitRate(hosts) * netem.Gbps,
		bgFlows:   BackgroundFlows,
		markK:     MarkingThreshold,
		qSize:     DCTCPQueueSize,
		epoch:     200 * sim.Microsecond,
	}
}

// highspeedSpec builds a two-rack all-to-all scenario at the given
// link rate: short propagation delays (as high-speed fabrics have) and
// DCTCP-family buffers/thresholds scaled by the caller. Two racks
// under one aggregation switch keep cross-rack traffic — and with it
// PASE's remote arbitration exchanges, so the highspeed figure can put
// arbitration bytes and ExpressPass credit bytes on the same axis. The
// rack uplinks get full-bisection capacity (hosts/2 × the edge rate),
// so the access links stay the bottleneck at every sweep rate.
func highspeedSpec(rate netem.BitRate, hosts, qSize, markK int) scenarioSpec {
	return scenarioSpec{
		fabric: topology.Config{
			Racks: 2, HostsPerRack: hosts / 2, RacksPerAgg: 2,
			EdgeRate: rate, FabricRate: netem.BitRate(hosts/2) * rate,
			LinkDelay: HighspeedLinkDelay,
		},
		pattern:   workload.AllToAll{Hosts: workload.HostRange(0, hosts)},
		sizes:     workload.UniformSize{Min: ShortFlowMin, Max: ShortFlowMax},
		reference: netem.BitRate(hosts) * rate,
		bgFlows:   BackgroundFlows,
		markK:     markK,
		qSize:     qSize,
		epoch:     100 * sim.Microsecond,
	}
}

// CtrlScaleRacksOf parses the ctrlscale scenario family: "ctrlscale"
// (the default rack count) or "ctrlscale-<racks>". 0 means s is not
// in the family — the façade uses that to validate parametric
// scenario names.
func CtrlScaleRacksOf(s Scenario) int {
	if s == CtrlScale {
		return CtrlScaleDefaultRacks
	}
	rest, ok := strings.CutPrefix(string(s), string(CtrlScale)+"-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		return 0
	}
	return n
}

// ctrlScaleSpec builds the rack-count-parametric fabric the ctrlscale
// figure sweeps: small two-host racks under up to eight-rack
// aggregation groups, the interactive short-flow deadline mix, and a
// fixed aggregate reference rate, so arrivals stay comparable while
// the fabric — and with it the control plane's reach — grows.
func ctrlScaleSpec(racks int) scenarioSpec {
	rpa := CtrlScaleRacksPerAgg
	if rpa > racks {
		rpa = racks
	}
	for racks%rpa != 0 {
		rpa--
	}
	hosts := racks * CtrlScaleHostsPerRack
	return scenarioSpec{
		fabric: topology.Config{
			Racks: racks, HostsPerRack: CtrlScaleHostsPerRack, RacksPerAgg: rpa,
			EdgeRate: netem.Gbps, FabricRate: 10 * netem.Gbps,
			LinkDelay: HighspeedLinkDelay,
		},
		pattern:   workload.AllToAll{Hosts: workload.HostRange(0, hosts)},
		sizes:     workload.UniformSize{Min: ShortFlowMin, Max: ShortFlowMax},
		reference: CtrlScaleReference,
		deadlines: true,
		bgFlows:   BackgroundFlows,
		markK:     MarkingThreshold,
		qSize:     DCTCPQueueSize,
		epoch:     200 * sim.Microsecond,
		hier:      arbitration.HierarchyParams{FanOut: CtrlScaleFanOut, TopShards: CtrlScaleTopShards},
	}
}

// incastSpec builds the N→1 massive-incast scenario: senders many
// hosts all transmit to one receiver whose access link is the
// bottleneck. Buffers stay at the paper's 225-packet depth, so more
// concurrent senders than buffer slots force window-based transports
// to drop where credit shaping does not.
func incastSpec(senders int, rate netem.BitRate) scenarioSpec {
	hosts := senders + 1
	return scenarioSpec{
		fabric: topology.Config{
			Racks: 1, HostsPerRack: hosts, RacksPerAgg: 1,
			EdgeRate: rate, FabricRate: rate,
			LinkDelay: HighspeedLinkDelay,
		},
		pattern:   workload.LeftRight{Left: workload.HostRange(0, senders), Right: []pkt.NodeID{pkt.NodeID(senders)}},
		sizes:     workload.UniformSize{Min: ShortFlowMin, Max: ShortFlowMax},
		reference: rate, // the receiver's access link
		markK:     MarkingThreshold,
		qSize:     DCTCPQueueSize,
		epoch:     100 * sim.Microsecond,
	}
}

// occOf returns the shared occupancy histogram for a queue role: every
// host NIC feeds one instrument, every switch port another. A nil
// registry yields nil (uninstrumented) histograms.
func occOf(reg *obs.Registry, kind topology.QueueKind) *obs.Histogram {
	if kind == topology.QueueHostNIC {
		return reg.Histogram("queue/hostnic/occ")
	}
	return reg.Histogram("queue/switch/occ")
}

// queueFactory picks the switch discipline the protocol assumes; reg
// (which may be nil) attaches occupancy instruments to every queue.
func queueFactory(p Protocol, sp scenarioSpec, numQueues int, reg *obs.Registry) func(topology.QueueKind) netem.Queue {
	switch p {
	case PFabric:
		return func(kind topology.QueueKind) netem.Queue {
			q := netem.NewPFabric(PFabricQueueSize)
			q.Occ = occOf(reg, kind)
			q.Scanned = reg.Counter("queue/pfabric/slots_scanned")
			return q
		}
	case PDQ:
		return func(kind topology.QueueKind) netem.Queue {
			q := netem.NewDropTail(PDQQueueSize)
			q.Occ = occOf(reg, kind)
			return q
		}
	case PASE:
		// Simulation: one 500-packet buffer per port shared by the
		// priority classes, with push-out (Table 3). Testbed: the
		// Linux PRIO/CBQ arrangement — each class its own 100-packet
		// qdisc (§3.3 / §4.4).
		limit := PASEQueueSize
		perBand := false
		if sp.qSize < DCTCPQueueSize {
			limit = sp.qSize
			perBand = true
		}
		var occBand []*obs.Histogram
		if reg != nil {
			occBand = make([]*obs.Histogram, numQueues)
			for b := range occBand {
				occBand[b] = reg.Histogram(fmt.Sprintf("queue/prio/band%d/occ", b))
			}
		}
		return func(topology.QueueKind) netem.Queue {
			q := netem.NewPrio(numQueues, limit, sp.markK)
			q.PerBand = perBand
			q.OccBand = occBand
			return q
		}
	case ExpressPass:
		// Credit shaping per port: the data class gets the scenario's
		// buffer depth (it stays near-empty by construction), credits a
		// shallow rate-limited FIFO, and the ctrl class room for the
		// ACK stream. Pacing gaps are derived from each port's rate at
		// Bind time (bindCreditQueues).
		return func(kind topology.QueueKind) netem.Queue {
			q := netem.NewCreditQueue(sp.qSize, CreditQueueSize, CreditCtrlQueueSize)
			q.Occ = occOf(reg, kind)
			return q
		}
	default: // the DCTCP family
		return func(kind topology.QueueKind) netem.Queue {
			q := netem.NewREDECN(sp.qSize, sp.markK)
			q.Occ = occOf(reg, kind)
			return q
		}
	}
}

// shardEnv is one engine shard's share of a run — everything that must
// not be shared across shard goroutines (obs instruments and checkers
// are not concurrent-safe). A serial run is the one-environment case:
// its engine is a plain sim.NewEngine and buf stays nil (stacks feed
// the driver's sink directly).
type shardEnv struct {
	eng *sim.Engine
	reg *obs.Registry
	chk *check.Checker
}

// partition decides whether a run shards. It returns the fabric
// partition, or nil plus the reason a cfg.Shards > 1 request runs on
// one engine ("" when none was made). PASE's arbitration and PDQ's
// switch state are fabric-synchronous — senders call into shared
// structures inline, with no link delay between shards to hide the
// latency — so those runs keep the serial engine. So do runs with a
// trace track or a fault plan: the recorder, the fault injector and
// the routing controller (attached only to a faulted run) each run on
// one engine. A single-atom fabric has nothing to cut.
func partition(cfg PointConfig, sp scenarioSpec) (*topology.Partition, string) {
	if cfg.Shards <= 1 {
		return nil, ""
	}
	switch {
	case cfg.Protocol == PASE:
		return nil, "pase"
	case cfg.Protocol == PDQ:
		return nil, "pdq"
	case cfg.Trace.Enabled():
		return nil, "trace"
	case !cfg.Faults.Empty():
		return nil, "faults"
	}
	part := topology.PartitionFabric(sp.fabric, cfg.Shards)
	if part.Shards < 2 {
		return nil, "single_atom"
	}
	return part, ""
}

// RunPoint executes one simulation point: on one plain engine, or —
// when cfg.Shards > 1 and partition allows it — across conservatively
// synchronized engine shards. The wiring below is written once over a
// slice of per-shard environments; only the drive loop at the end
// differs. The relative order of the setup Schedule calls (fault
// arming, protocol attach, the recorder's queue track, arrivals)
// fixes the events' order and must not change: the pinned
// digests depend on it, and the calls a sharded run makes fix the rank
// slots that keep it equal to the serial run.
func RunPoint(cfg PointConfig) PointResult {
	sp, ok := lookupScenario(cfg.Scenario)
	if !ok {
		panic(fmt.Sprintf("experiments: unknown scenario %q", cfg.Scenario))
	}
	numFlows := cmp.Or(cfg.NumFlows, DefaultFlows)
	numQueues := cfg.PASE.NumQueues
	if numQueues == 0 {
		numQueues = PASENumQueues
	}
	linkDelay := sp.fabric.LinkDelay

	part, fallback := partition(cfg, sp)
	shardOf := func(pkt.NodeID) int { return 0 }
	envs := make([]shardEnv, 1)
	var se *sim.ShardedEngine
	if part == nil {
		envs[0].eng = sim.NewEngine()
	} else {
		shardOf = part.ShardOfID
		envs = make([]shardEnv, part.Shards)
		var err error
		if se, err = sim.NewShardedEngine(part.Shards, linkDelay); err != nil {
			panic(err)
		}
		for i := range envs {
			envs[i].eng = se.Shard(i)
		}
	}
	envOf := func(id pkt.NodeID) *shardEnv { return &envs[shardOf(id)] }

	// One registry per shard plus, when sharded, one for the
	// coordinator; at one shard the coordinator's is the shard's. All
	// stay nil without cfg.Obs (every obs call is nil-safe).
	var coordReg *obs.Registry
	if cfg.Obs {
		for i := range envs {
			envs[i].reg = obs.NewRegistry()
		}
		coordReg = envs[0].reg
		if part != nil {
			coordReg = obs.NewRegistry()
			coordReg.Counter("shard/shards").Add(int64(part.Shards))
			coordReg.Counter("shard/atoms").Add(int64(part.Atoms))
		}
	}
	if fallback != "" {
		coordReg.Counter("shard/fallback_serial").Inc()
		coordReg.Counter("shard/fallback_serial/" + fallback).Inc()
	}
	if se != nil {
		se.Instrument(coordReg)
	}
	checked := cfg.Check || check.Forced()
	for i := range envs {
		e := envs[i].eng
		e.Instrument(envs[i].reg)
		if checked {
			envs[i].chk = check.New(func() int64 { return int64(e.Now()) })
			e.AttachCheck(envs[i].chk)
		}
	}

	// Build the fabric: every node's ports live on its shard's engine
	// and feed its shard's registry.
	qf := make([]func(topology.QueueKind) netem.Queue, len(envs))
	for i := range envs {
		qf[i] = queueFactory(cfg.Protocol, sp, numQueues, envs[i].reg)
	}
	sp.fabric.EngineOf = func(o netem.Node) *sim.Engine { return envOf(o.ID()).eng }
	sp.fabric.NewQueueFor = func(kind topology.QueueKind, o netem.Node) netem.Queue {
		return qf[shardOf(o.ID())](kind)
	}
	net := topology.Build(envs[0].eng, sp.fabric)
	// Every CreditQueue learns its port (engine clock, transmitter kick,
	// rate-derived pacing gap) and every port its shard's checker.
	for _, l := range net.Links {
		if cq, ok := l.Port.Queue().(*netem.CreditQueue); ok {
			cq.Bind(l.Port)
		}
		if checked {
			l.Port.AttachCheck(envOf(l.From.ID()).chk)
		}
	}
	if part != nil {
		cutLinks(se, part, net)
	}

	// The recorder, the fault injector and the routing control loop
	// exist only in serial runs (partition), so they live on envs[0].
	// The recorder schedules nothing until its queue track starts.
	var rec *trace.Recorder
	if cfg.Trace.Enabled() {
		rec = trace.NewRecorder(envs[0].eng, trace.RecorderConfig{
			Meta: traceMeta(cfg, net), SampleN: cfg.Trace.SampleN, Seed: cfg.Seed,
			EventWriter: cfg.Trace.FlowLogWriter, SpanWriter: cfg.Trace.SpanWriter,
		})
	}
	var inj *faults.Injector
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(); err != nil {
			panic(err)
		}
		inj = faults.NewInjector(envs[0].eng, cfg.Faults, cfg.Seed)
		inj.Instrument(envs[0].reg)
		for _, l := range net.Links {
			inj.BindPort(l.ID, l.Port)
		}
		inj.Arm()
	}
	// Rerouting reacts to the injector's link reports, so a run without
	// faults has nothing for it to do.
	if cfg.Reroute && inj != nil {
		if ctl := route.Attach(route.Params{Net: net, Eng: envs[0].eng, Reg: envs[0].reg, Rec: rec}); ctl != nil {
			inj.OnLinkState = ctl.LinkState
		}
	}

	d := transport.NewDriver(net, nil)
	d.InstrumentEach(func(h pkt.NodeID) *obs.Registry { return envOf(h).reg })
	if checked {
		d.ChkOf = func(src pkt.NodeID) *check.Checker { return envOf(src).chk }
	}
	if cfg.AbortAfter > 0 {
		for _, st := range d.Stacks {
			st.AbortAfter = cfg.AbortAfter
		}
	}

	// PASE and PDQ reach this switch at one shard only (partition), so
	// they wire against envs[0]. ExpressPass shards cleanly: every
	// credit engine is per-host state driven by its host's shard engine,
	// and Totals sums the hosts in stack (host-ID) order.
	var newControl func(*transport.Sender) transport.Control
	var pdqSys *pdq.System
	var paseSys *arbitration.System
	var paseT *endhost.Transport
	var epSys *expresspass.System
	switch cfg.Protocol {
	case DCTCP:
		newControl = dctcp.New(dctcp.DefaultConfig())
	case D2TCP:
		newControl = dctcp.NewD2TCP(dctcp.DefaultConfig())
	case L2DCT:
		newControl = dctcp.NewL2DCT(dctcp.DefaultConfig())
	case PFabric:
		newControl = pfabric.New()
	case PDQ:
		pdqSys = pdq.Attach(d, sp.deadlines)
		pdqSys.Instrument(envs[0].reg)
		if checked {
			pdqSys.AttachCheck(envs[0].chk)
		}
	case ExpressPass:
		epSys = expresspass.Attach(d, cfg.Seed)
	case PASE:
		p := DefaultPASEParams()
		p.Epoch = sp.epoch
		p.CtrlPerHop = linkDelay + 5*sim.Microsecond
		p.NumQueues = numQueues
		p.LocalOnly = cfg.PASE.LocalOnly
		p.EarlyPruning = !cfg.PASE.NoPruning
		p.Delegation = !cfg.PASE.NoDelegation
		p.Hierarchy = sp.hier
		if cfg.PASE.HierFanOut > 0 {
			p.Hierarchy.FanOut = cfg.PASE.HierFanOut
		}
		if cfg.PASE.HierTopShards > 0 {
			p.Hierarchy.TopShards = cfg.PASE.HierTopShards
		}
		if cfg.PASE.Central {
			p.Central = true
			p.Hierarchy = arbitration.HierarchyParams{}
		}
		ec := endhost.DefaultConfig()
		ec.UseRefRate = !cfg.PASE.DisableRefRate
		ec.Probing = !cfg.PASE.DisableProbing
		ec.TaskAware = cfg.PASE.TaskAware
		paseSys = arbitration.NewSystem(net, p)
		paseT = endhost.Attach(d, paseSys, ec)
		paseT.Instrument(envs[0].reg)
		paseSys.Instrument(envs[0].reg)
		if checked {
			paseSys.AttachCheck(envs[0].chk)
		}
		if inj != nil {
			paseSys.Faults = inj
			inj.OnCrash = paseSys.Crash
			inj.OnRestart = paseSys.Restore
		}
	default:
		panic(fmt.Sprintf("experiments: unknown protocol %q", cfg.Protocol))
	}
	if newControl != nil {
		for _, st := range d.Stacks {
			st.NewControl = newControl
		}
	}

	// Tracing: every stack, PASE's endpoint and its arbitration record
	// into the one recorder. The driver hooks chain after protocol
	// attach (PDQ and PASE claim OnFlowDone above, and the traces must
	// observe those runs too). Recording never schedules events; only
	// the queue track does, and it starts last.
	if rec != nil {
		for _, st := range d.Stacks {
			st.Rec = rec
		}
		if paseT != nil {
			paseT.Rec, paseSys.Rec = rec, rec
		}
		wireTraceHooks(cfg, d, rec)
		if cfg.Trace.QueueSample > 0 {
			rec.SampleQueues(cfg.Trace.QueueSample, trace.AllPorts(net))
		}
	}

	spec := workload.Spec{
		Pattern:         sp.pattern,
		Sizes:           sp.sizes,
		Load:            cfg.Load,
		Reference:       sp.reference,
		NumFlows:        numFlows,
		Fanin:           sp.fanin,
		BackgroundFlows: sp.bgFlows,
	}
	if sp.deadlines {
		spec.DeadlineMin = DeadlineLo
		spec.DeadlineMax = DeadlineHi
	}
	var sc *metrics.StreamCollector
	if cfg.Stream {
		sc = metrics.NewStreamCollector(metrics.DefaultSketchEps)
		d.UseSink(sc)
	}

	// The drive loop is the one step with two arms, each the only loop
	// that can run on its input: Engine.Run on one engine, barrier
	// windows plus the serial tail on several.
	var summary metrics.Summary
	rng := sim.NewRand(cfg.Seed + 1)
	if part != nil {
		summary = driveSharded(se, d, part, spec.Stream(rng, 1))
	} else {
		if sp.flows != nil {
			d.Schedule(sp.flows)
		} else {
			d.ScheduleStream(spec.Stream(rng, 1).Next)
		}
		var err error
		if summary, err = d.Run(0); err != nil {
			panic(err)
		}
	}

	res := PointResult{
		Summary:       summary,
		CDF:           d.Sink.CDF(200),
		Queues:        net.QueueStatsTotal(),
		ShardFallback: fallback,
	}
	if !cfg.Stream {
		res.Records = d.Collector.Records()
	}
	// Loss rate: every data packet dropped anywhere in the fabric over
	// the data packets the hosts attempted to transmit.
	host := net.HostQueueStats()
	if att := host.EnqueuedData + host.DroppedData; att > 0 {
		res.LossRate = float64(res.Queues.DroppedData) / float64(att)
	}
	if pdqSys != nil {
		res.CtrlMessages = pdqSys.SyncMessages
	}
	if paseSys != nil {
		res.CtrlMessages = paseSys.Stats.Messages
	}
	if epSys != nil {
		res.CtrlMessages = epSys.Totals().Messages
	}
	if rec != nil {
		rt, err := rec.Take()
		if err != nil {
			panic(err)
		}
		res.Trace = rt
	}
	if checked {
		if sc != nil && sc.Completed() > 0 {
			sk := sc.Sketch()
			envs[0].chk.SketchBounds("metrics/stream",
				int64(summary.P50), int64(summary.P99), sk.Min(), sk.Max())
		}
		// The fabric is quiet: verify every queue's end-state packet
		// conservation, then fold the verdict into the result.
		for _, l := range net.Links {
			if cq, ok := l.Port.Queue().(netem.Checkable); ok {
				cq.CheckConservation()
			}
		}
		for i := range envs {
			res.Violations += envs[i].chk.Total()
			res.CheckViolations = append(res.CheckViolations, envs[i].chk.Violations()...)
		}
	}
	if cfg.Obs {
		scrapeRun(coordReg, envs[0].eng, net, summary, paseSys, pdqSys, epSys)
		scrapeCheck(coordReg, envs)
		scrapeTrace(coordReg, res.Trace, cfg.Trace.SpanWriter != nil)
		if sc != nil {
			sk := sc.Sketch()
			coordReg.Counter("metrics/sketch_adds").Add(sk.Count())
			coordReg.Counter("metrics/sketch_buckets_used").Add(int64(sk.BucketsUsed()))
			coordReg.Counter("metrics/stream_points").Inc()
		}
		res.Obs = coordReg.Snapshot()
		if part != nil {
			snaps := make([]*obs.Snapshot, 0, len(envs)+1)
			for i := range envs {
				snaps = append(snaps, envs[i].reg.Snapshot())
			}
			res.Obs = obs.MergeAll(append(snaps, res.Obs))
		}
	}
	if checked && !cfg.Check && res.Violations > 0 {
		// Forced mode (PASE_CHECK) with no caller looking at the
		// verdict: fail loudly so a whole test pass acts as a tripwire.
		sums := ""
		for i := range envs {
			if envs[i].chk.Total() > 0 {
				sums += envs[i].chk.Summary()
			}
		}
		panic("experiments: PASE_CHECK run failed: " + sums)
	}
	return res
}

// scrapeCheck folds the checkers' verdicts into the registry so run
// manifests carry them: check/violations totals every breach and
// check/violations/<invariant> splits them by invariant.
func scrapeCheck(reg *obs.Registry, envs []shardEnv) {
	if envs[0].chk == nil {
		return
	}
	reg.Counter("check/enabled").Inc()
	for i := range envs {
		reg.Counter("check/violations").Add(envs[i].chk.Total())
		for inv, n := range envs[i].chk.ByInvariant() {
			reg.Counter("check/violations/" + inv).Add(n)
		}
	}
}

// scrapeRun folds the simulator's passive end-of-run counters — queue
// stats, link transmit/busy totals, control-plane stats — into the
// registry next to the live-instrumented streams, so one Snapshot
// carries the whole run.
func scrapeRun(reg *obs.Registry, eng *sim.Engine, net *topology.Network,
	summary metrics.Summary, paseSys *arbitration.System, pdqSys *pdq.System,
	epSys *expresspass.System) {
	reg.Counter("run/points").Inc()
	reg.Counter("sim/elapsed_ns").Add(int64(eng.Now()))
	reg.Counter("flows/total").Add(int64(summary.Flows))
	reg.Counter("flows/completed").Add(int64(summary.Completed))
	for _, l := range net.Links {
		dir := "down"
		if l.Up {
			dir = "up"
		}
		prefix := "net/" + l.Level.String() + "/" + dir + "/"
		s := l.Port.Queue().Stats()
		reg.Counter(prefix + "links").Inc()
		reg.Counter(prefix + "enq").Add(s.Enqueued)
		reg.Counter(prefix + "drop").Add(s.Dropped)
		reg.Counter(prefix + "drop_bytes").Add(s.DroppedBytes)
		reg.Counter(prefix + "mark").Add(s.Marked)
		reg.Counter(prefix + "tx_pkts").Add(l.Port.TxPackets)
		reg.Counter(prefix + "tx_bytes").Add(l.Port.TxBytes)
		reg.Counter(prefix + "busy_ns").Add(int64(l.Port.BusyTime()))
	}
	if paseSys != nil {
		reg.Counter("arb/messages").Add(paseSys.Stats.Messages)
		reg.Counter("arb/bytes").Add(paseSys.Stats.Bytes)
		reg.Counter("arb/setups").Add(paseSys.Stats.Setups)
		reg.Counter("arb/refreshes").Add(paseSys.Stats.Refreshes)
		reg.Counter("arb/releases").Add(paseSys.Stats.Releases)
		reg.Counter("arb/pruned").Add(paseSys.Stats.Pruned)
		reg.Counter("arb/delegated").Add(paseSys.Stats.Delegated)
		reg.Counter("arb/prune_saved_msgs").Add(paseSys.Stats.PruneSavedMsgs)
		reg.Counter("arb/sync_messages").Add(paseSys.Stats.SyncMessages)
		// Unified control-overhead axis: the same counters ExpressPass
		// feeds from its credit plane, so figures can compare the two
		// control planes on one scale.
		reg.Counter("ctrl/messages").Add(paseSys.Stats.Messages)
		reg.Counter("ctrl/bytes").Add(paseSys.Stats.Bytes)
	}
	if pdqSys != nil {
		reg.Counter("pdq/sync_messages").Add(pdqSys.SyncMessages)
		reg.Counter("ctrl/messages").Add(pdqSys.SyncMessages)
	}
	if epSys != nil {
		t := epSys.Totals()
		reg.Counter("credit/sent").Add(t.Credits)
		reg.Counter("credit/bytes").Add(t.CreditBytes)
		reg.Counter("credit/requests").Add(t.Requests)
		reg.Counter("credit/wasted").Add(t.Wasted)
		reg.Counter("ctrl/messages").Add(t.Messages)
		reg.Counter("ctrl/bytes").Add(t.CreditBytes + t.Requests*pkt.CreditSize)
	}
}

// traceMeta describes the run for the trace header.
func traceMeta(cfg PointConfig, net *topology.Network) trace.Meta {
	return trace.Meta{
		Proto:    string(cfg.Protocol),
		Scenario: string(cfg.Scenario),
		NICBps:   int64(net.Hosts[0].Port().Rate()),
	}
}

// scrapeTrace folds the recorder's retention stats into the registry
// so run manifests report what the trace kept and shed; the span
// tracks' counters appear only when spans were on.
func scrapeTrace(reg *obs.Registry, rt *trace.RunTrace, spans bool) {
	if rt == nil {
		return
	}
	st := rt.Stats
	// Only runs past the cap count this, so other manifests keep their
	// bytes.
	if st.SamplesEvicted > 0 {
		reg.Counter("trace/queue_samples_evicted").Add(st.SamplesEvicted)
	}
	if !spans {
		return
	}
	reg.Counter("trace/flows_started").Add(st.FlowsStarted)
	reg.Counter("trace/flows_final").Add(st.FlowsFinal)
	reg.Counter("trace/flows_sampled_out").Add(st.FlowsSampledOut)
	reg.Counter("trace/flows_unfinished").Add(st.FlowsUnfinished)
	reg.Counter("trace/spans_truncated").Add(st.SpansTruncated)
	reg.Counter("trace/ctrl_spans").Add(st.CtrlTotal)
	reg.Counter("trace/ctrl_evicted").Add(st.CtrlEvicted)
	// Routed runs only: untouched runs must keep their manifests
	// byte-identical to pre-routing builds.
	if len(rt.Route) > 0 {
		reg.Counter("trace/route_events").Add(int64(len(rt.Route)))
	}
}

// wireTraceHooks installs the recorder's flow lifecycle hooks on the
// driver, chaining after any protocol-installed completion hook. The
// hooks observe only — they never schedule events — so installing them
// cannot perturb the simulation.
func wireTraceHooks(cfg PointConfig, d *transport.Driver, rec *trace.Recorder) {
	if cfg.Trace.FlowLogWriter == nil && cfg.Trace.SpanWriter == nil {
		return
	}
	event := func(s *transport.Sender) trace.FlowEvent {
		return trace.FlowEvent{Flow: s.Spec.ID, Src: s.Spec.Src, Dst: s.Spec.Dst, Size: s.Spec.Size}
	}
	prevStart := d.OnFlowStart
	d.OnFlowStart = func(s *transport.Sender) {
		// A flow its sender's gate holds at start (Hold, or paced at
		// rate 0 until a grant or credit) opens waiting.
		rec.FlowArrive(event(s), 0, s.Hold || s.Paced && s.Rate <= 0)
		if prevStart != nil {
			prevStart(s)
		}
	}
	prevDone := d.OnFlowDone
	d.OnFlowDone = func(s *transport.Sender) {
		e := event(s)
		if !s.Aborted {
			e.FCT = s.FinishTime.Sub(s.Spec.Start)
		}
		rec.FlowEnd(e, s.Aborted)
		if prevDone != nil {
			prevDone(s)
		}
	}
}
