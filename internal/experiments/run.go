package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"pase/internal/check"
	"pase/internal/core"
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
	"pase/internal/transport/d2tcp"
	"pase/internal/transport/dctcp"
	"pase/internal/transport/expresspass"
	"pase/internal/transport/l2dct"
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
	// count, so ECMP bucket math gets exercised off the easy modulus)
	// for the routing-control-loop experiments: chaos plans down
	// leaf↔spine links mid-run and the reactive reroute + hotspot-TE
	// loop keeps flows alive.
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
	// (the ctrlscale figure sweeps 16 → 2048). A fixed aggregate
	// workload spreads all-to-all over a growing fabric, so the data
	// plane's job stays comparable while the control plane's span
	// grows — the axis the figure measures. PASE runs the deep
	// hierarchy here by default (fan-out 4, sharded root).
	CtrlScale Scenario = "ctrlscale"
)

// PASEOptions select PASE ablations.
type PASEOptions struct {
	LocalOnly      bool // Fig 12a: host-local arbitration only
	NoPruning      bool // Fig 11: disable early pruning
	NoDelegation   bool // Fig 11: disable delegation
	NumQueues      int  // Fig 12b: 0 = default (8)
	DisableRefRate bool // Fig 13a: PASE-DCTCP
	DisableProbing bool // §4.3.2 ablation
	NoReorderGuard bool
	// TaskAware swaps the scheduling criterion from remaining size to
	// task id for task-carrying flows (Baraat-style; §3.1.1).
	TaskAware bool
	// Central swaps the arbitration hierarchy for the fully
	// centralized comparison arm (one controller computes whole-path
	// allocations; hierarchy, delegation and pruning are ignored).
	Central bool
	// HierFanOut / HierTopShards override the scenario's deep-
	// hierarchy shape (0 = keep the scenario default; most scenarios
	// default to the classic flat 3-tier climb).
	HierFanOut    int
	HierTopShards int
}

// TraceConfig selects optional per-point tracing.
type TraceConfig struct {
	// FlowLog records flow start/done/abort events.
	FlowLog bool
	// QueueSample, when positive, samples every queue's occupancy at
	// this interval.
	QueueSample sim.Duration
	// Spans enables the span-based flight recorder: per-flow lifecycle
	// spans (wait-for-control, transmission epochs per priority queue,
	// retx/timeout/fallback marks) plus control-plane exchange spans,
	// merged into PointResult.Trace in canonical order.
	Spans bool
	// SampleN keeps 1 in N flow traces (0 or 1 = every flow). Flows
	// that misbehaved — retransmissions, timeouts, fallback, abort —
	// are always kept regardless of the draw.
	SampleN int
	// FlowCap / FlowLogCap / SampleCap bound the retained flow traces,
	// flow-log events and queue samples (0 = package defaults).
	FlowCap    int
	FlowLogCap int
	SampleCap  int
	// FlowLogWriter, with FlowLog, streams flow events to this writer
	// as canonical TSV instead of retaining them — the bounded-memory
	// pairing for Stream runs. Serial only (forces the serial engine).
	FlowLogWriter io.Writer
	// SpanWriter, with Spans, streams the Perfetto trace at flow
	// completion instead of retaining traces. Serial only.
	SpanWriter io.Writer
}

// Enabled reports whether any tracing is requested.
func (t TraceConfig) Enabled() bool { return t.FlowLog || t.QueueSample > 0 || t.Spans }

// spills reports whether any trace output streams to a writer; spill
// streams have a single writer, so spilling runs stay serial.
func (t TraceConfig) spills() bool { return t.FlowLogWriter != nil || t.SpanWriter != nil }

// PointConfig is one (protocol, scenario, load) simulation.
type PointConfig struct {
	Protocol Protocol
	Scenario Scenario
	Load     float64
	Seed     uint64
	// NumFlows is the number of foreground flows (0 = 2000).
	NumFlows int
	PASE     PASEOptions
	// Obs attaches an observability Registry to the run and returns
	// its Snapshot in the result.
	Obs bool
	// Check attaches the runtime invariant checker to the run: queue
	// conservation/capacity/ordering, ECN marking, arbitration
	// feasibility, clock monotonicity and FCT lower bounds are all
	// verified, and violations land in PointResult (plus the obs
	// snapshot when Obs is also set). The PASE_CHECK environment
	// variable force-enables this for every run.
	Check bool
	// Trace selects flow-event and queue-occupancy tracing.
	Trace TraceConfig
	// Faults is the run's fault-injection plan. Nil or empty leaves the
	// run byte-identical to a fault-free one (the injector is never
	// built and the fault RNG stream is never created).
	Faults *faults.Plan
	// Route enables the reactive routing control loop (failure
	// rerouting and/or hotspot TE) on leaf-spine fabrics. The zero
	// value leaves routing frozen at the build-time ECMP hash and the
	// run byte-identical to one before the control loop existed.
	Route route.Config
	// AbortAfter, when positive, makes every sender abort its flow
	// after this much time without forward progress (new data acked).
	// Aborted flows are excluded from AFCT and reported separately in
	// the Summary. Zero disables aborts.
	AbortAfter sim.Duration
	// Stream runs the point through the bounded-memory path: arrivals
	// are pulled from workload.Spec.Stream one at a time and flow
	// records land in a metrics.StreamCollector, so memory is
	// O(in-flight flows) instead of O(NumFlows). Flows, Completed,
	// AFCT, MaxFCT, Retx and Timeouts are exactly the stored-mode
	// values; P50/P99 and the CDF are within the sketch's ε. Records
	// (per-flow outcomes) are not retained.
	Stream bool
	// SketchEps is the streaming quantile sketch's relative error
	// bound (0 = metrics.DefaultSketchEps).
	SketchEps float64
	// Shards splits the single run across this many engine shards
	// synchronized by conservative lookahead (0 or 1 = serial).
	// Results are byte-identical to serial at every shard count —
	// including trace output: traced runs shard too, recording into
	// per-shard buffers merged in canonical order. Protocols with
	// fabric-synchronous control planes (PASE, PDQ), spill-mode trace
	// writers, and single-atom fabrics fall back to serial — the
	// shard/fallback_serial counter records it when Obs is set.
	Shards int
}

// PointResult is what one simulation yields.
type PointResult struct {
	Summary metrics.Summary
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
	// FlowEvents / QueueSamples hold the optional traces.
	FlowEvents   []trace.FlowEvent
	QueueSamples []trace.QueueSample
	// Trace is the flight recording (nil unless TraceConfig.Spans was
	// set). In spill mode the flow traces have already streamed to the
	// writer; Trace still carries control spans, stats and meta.
	Trace *trace.RunTrace
}

// scenarioSpec bundles what a scenario needs.
type scenarioSpec struct {
	topo func(newQueue func(topology.QueueKind) netem.Queue) topology.Config
	// buildLS, when set, builds a leaf-spine fabric instead of a tree.
	buildLS   *topology.LeafSpineConfig
	pattern   func(n *topology.Network) workload.Pattern
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
}

// teFailoverLS is the te-failover fabric: DefaultLeafSpine widened to
// three spines. The te figure's fault plans compute link IDs from it,
// so the scenario and the plans share one shape.
func teFailoverLS() topology.LeafSpineConfig {
	ls := topology.DefaultLeafSpine(nil)
	ls.Spines = 3
	return ls
}

func scenario(s Scenario) scenarioSpec {
	if racks := ctrlScaleRacks(s); racks > 0 {
		return ctrlScaleSpec(racks)
	}
	switch s {
	case LeftRight:
		return scenarioSpec{
			topo: topology.Baseline,
			pattern: func(n *topology.Network) workload.Pattern {
				return workload.LeftRight{
					Left:  workload.HostRange(0, 80),
					Right: workload.HostRange(80, 160),
				}
			},
			sizes:     workload.UniformSize{Min: ShortFlowMin, Max: ShortFlowMax},
			reference: leftRightReference,
			bgFlows:   BackgroundFlows,
			markK:     MarkingThreshold,
			qSize:     DCTCPQueueSize,
			epoch:     300 * sim.Microsecond,
		}
	case IntraRack:
		return scenarioSpec{
			topo: func(nq func(topology.QueueKind) netem.Queue) topology.Config {
				return topology.SingleRack(IntraRackHosts, nq)
			},
			pattern: func(n *topology.Network) workload.Pattern {
				return workload.AllToAll{Hosts: workload.HostRange(0, IntraRackHosts)}
			},
			sizes:     workload.UniformSize{Min: ShortFlowMin, Max: ShortFlowMax},
			reference: intraRackReference(IntraRackHosts),
			bgFlows:   BackgroundFlows,
			markK:     MarkingThreshold,
			qSize:     DCTCPQueueSize,
			epoch:     100 * sim.Microsecond,
		}
	case IntraRackLarge:
		sp := scenario(IntraRack)
		sp.sizes = workload.UniformSize{Min: DeadlineFlowMin, Max: DeadlineFlowMax}
		return sp
	case WorkerAgg:
		sp := scenario(IntraRack)
		sp.fanin = WorkerFanin
		return sp
	case Deadline:
		sp := scenario(IntraRackLarge)
		sp.deadlines = true
		return sp
	case LeafSpine:
		ls := topology.DefaultLeafSpine(nil)
		return scenarioSpec{
			buildLS: &ls,
			pattern: func(n *topology.Network) workload.Pattern {
				return workload.AllToAll{Hosts: workload.HostRange(0, ls.Leaves*ls.HostsPerLeaf)}
			},
			sizes: workload.UniformSize{Min: ShortFlowMin, Max: ShortFlowMax},
			// Load is defined against the total leaf-spine fabric
			// capacity actually reachable by edge-limited hosts.
			reference: netem.BitRate(ls.Leaves*ls.HostsPerLeaf) * netem.Gbps,
			bgFlows:   BackgroundFlows,
			markK:     MarkingThreshold,
			qSize:     DCTCPQueueSize,
			epoch:     200 * sim.Microsecond,
		}
	case LeafSpineWide:
		ls := topology.DefaultLeafSpine(nil)
		ls.Leaves, ls.Spines = 8, 4
		return scenarioSpec{
			buildLS: &ls,
			pattern: func(n *topology.Network) workload.Pattern {
				return workload.AllToAll{Hosts: workload.HostRange(0, ls.Leaves*ls.HostsPerLeaf)}
			},
			sizes:     workload.UniformSize{Min: ShortFlowMin, Max: ShortFlowMax},
			reference: netem.BitRate(ls.Leaves*ls.HostsPerLeaf) * netem.Gbps,
			bgFlows:   BackgroundFlows,
			markK:     MarkingThreshold,
			qSize:     DCTCPQueueSize,
			epoch:     200 * sim.Microsecond,
		}
	case TEFailover:
		ls := teFailoverLS()
		return scenarioSpec{
			buildLS: &ls,
			pattern: func(n *topology.Network) workload.Pattern {
				return workload.AllToAll{Hosts: workload.HostRange(0, ls.Leaves*ls.HostsPerLeaf)}
			},
			sizes:     workload.UniformSize{Min: ShortFlowMin, Max: ShortFlowMax},
			reference: netem.BitRate(ls.Leaves*ls.HostsPerLeaf) * netem.Gbps,
			bgFlows:   BackgroundFlows,
			markK:     MarkingThreshold,
			qSize:     DCTCPQueueSize,
			epoch:     200 * sim.Microsecond,
		}
	case Highspeed10:
		return highspeedSpec(10*netem.Gbps, HighspeedHosts, DCTCPQueueSize, MarkingThreshold)
	case Highspeed40:
		return highspeedSpec(40*netem.Gbps, HighspeedHosts, 4*DCTCPQueueSize, 4*MarkingThreshold)
	case Highspeed100:
		return highspeedSpec(100*netem.Gbps, HighspeedHosts, 10*DCTCPQueueSize, 10*MarkingThreshold)
	case HighspeedShallow:
		return highspeedSpec(100*netem.Gbps, HighspeedHosts, ShallowQueueSize, ShallowMarkK)
	case Incast64:
		return incastSpec(64, 100*netem.Gbps)
	case Incast256:
		return incastSpec(256, 100*netem.Gbps)
	case Testbed:
		return scenarioSpec{
			topo: topology.Testbed,
			pattern: func(n *topology.Network) workload.Pattern {
				return workload.LeftRight{
					Left:  workload.HostRange(0, 9),
					Right: []pkt.NodeID{9},
				}
			},
			sizes:     workload.UniformSize{Min: DeadlineFlowMin, Max: DeadlineFlowMax},
			reference: netem.Gbps, // the server's access link
			bgFlows:   1,
			markK:     20,
			qSize:     100,
			epoch:     250 * sim.Microsecond,
		}
	}
	panic(fmt.Sprintf("experiments: unknown scenario %q", s))
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
		topo: func(nq func(topology.QueueKind) netem.Queue) topology.Config {
			return topology.Config{
				Racks: 2, HostsPerRack: hosts / 2, RacksPerAgg: 2,
				EdgeRate: rate, FabricRate: netem.BitRate(hosts/2) * rate,
				LinkDelay: HighspeedLinkDelay,
				NewQueue:  nq,
			}
		},
		pattern: func(n *topology.Network) workload.Pattern {
			return workload.AllToAll{Hosts: workload.HostRange(0, hosts)}
		},
		sizes:     workload.UniformSize{Min: ShortFlowMin, Max: ShortFlowMax},
		reference: netem.BitRate(hosts) * rate,
		bgFlows:   BackgroundFlows,
		markK:     markK,
		qSize:     qSize,
		epoch:     100 * sim.Microsecond,
	}
}

// CtrlScaleRacksOf reports the rack count a ctrlscale-family scenario
// names (0 when s is not in the family) — the façade uses it to
// validate parametric scenario names.
func CtrlScaleRacksOf(s Scenario) int { return ctrlScaleRacks(s) }

// ctrlScaleRacks parses the ctrlscale scenario family: "ctrlscale"
// (the default rack count) or "ctrlscale-<racks>". 0 means s is not
// in the family.
func ctrlScaleRacks(s Scenario) int {
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
		topo: func(nq func(topology.QueueKind) netem.Queue) topology.Config {
			return topology.Config{
				Racks: racks, HostsPerRack: CtrlScaleHostsPerRack, RacksPerAgg: rpa,
				EdgeRate: netem.Gbps, FabricRate: 10 * netem.Gbps,
				LinkDelay: HighspeedLinkDelay,
				NewQueue:  nq,
			}
		},
		pattern: func(n *topology.Network) workload.Pattern {
			return workload.AllToAll{Hosts: workload.HostRange(0, hosts)}
		},
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
		topo: func(nq func(topology.QueueKind) netem.Queue) topology.Config {
			return topology.Config{
				Racks: 1, HostsPerRack: hosts, RacksPerAgg: 1,
				EdgeRate: rate, FabricRate: rate,
				LinkDelay: HighspeedLinkDelay,
				NewQueue:  nq,
			}
		},
		pattern: func(n *topology.Network) workload.Pattern {
			return workload.LeftRight{
				Left:  workload.HostRange(0, senders),
				Right: []pkt.NodeID{pkt.NodeID(senders)},
			}
		},
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

// bindCreditQueues connects every CreditQueue to its port — engine
// clock, transmitter kick and rate-derived pacing gap. Serial and
// sharded builds call it at the same position so runs stay
// byte-identical.
func bindCreditQueues(net *topology.Network) {
	for _, l := range net.Links {
		if cq, ok := l.Port.Queue().(*netem.CreditQueue); ok {
			cq.Bind(l.Port)
		}
	}
}

// RunPoint executes one simulation point.
func RunPoint(cfg PointConfig) PointResult {
	if cfg.Shards > 1 {
		if reason := shardFallback(cfg); reason != "" {
			return runPointSerial(cfg, reason)
		}
		return runPointSharded(cfg)
	}
	return runPointSerial(cfg, "")
}

// runPointSerial is the single-engine path; fallback, when non-empty,
// names why a sharded request degraded to serial (recorded in the obs
// snapshot).
func runPointSerial(cfg PointConfig, fallback string) PointResult {
	sp := scenario(cfg.Scenario)
	numFlows := cfg.NumFlows
	if numFlows == 0 {
		numFlows = 2000
	}
	numQueues := cfg.PASE.NumQueues
	if numQueues == 0 {
		numQueues = PASENumQueues
	}

	var reg *obs.Registry
	if cfg.Obs {
		reg = obs.NewRegistry()
	}
	if fallback != "" {
		reg.Counter("shard/fallback_serial").Inc()
		reg.Counter("shard/fallback_serial/" + fallback).Inc()
	}
	eng := sim.NewEngine()
	eng.Instrument(reg)
	var chk *check.Checker
	if cfg.Check || check.Forced() {
		chk = check.New(func() int64 { return int64(eng.Now()) })
		eng.AttachCheck(chk)
	}
	var net *topology.Network
	if sp.buildLS != nil {
		ls := *sp.buildLS
		ls.NewQueue = queueFactory(cfg.Protocol, sp, numQueues, reg)
		net = topology.BuildLeafSpine(eng, ls)
	} else {
		net = topology.Build(eng, sp.topo(queueFactory(cfg.Protocol, sp, numQueues, reg)))
	}
	bindCreditQueues(net)
	if chk != nil {
		for _, l := range net.Links {
			l.Port.AttachCheck(chk)
		}
	}
	var inj *faults.Injector
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(); err != nil {
			panic(err)
		}
		inj = faults.NewInjector(eng, cfg.Faults, cfg.Seed)
		inj.Instrument(reg)
		for _, l := range net.Links {
			inj.BindPort(l.ID, l.Port)
		}
		inj.Arm()
	}

	// Routing control loop: attached right after fault arming in both
	// the serial and sharded paths so its TE epoch timers hold the same
	// setup rank slots. routeRec is bound later, once the recorder
	// exists.
	var routeRec func(ev trace.RouteEvent)
	var routeCtl *route.Controller
	if cfg.Route.Enabled() && net.IsLeafSpine() {
		routeCtl = route.Attach(route.Params{
			Net: net, Cfg: cfg.Route,
			EngineOf: func(int) *sim.Engine { return eng },
			Deliver: func(_ netem.Node, _ int, fn func()) {
				eng.Schedule(net.Cfg.LinkDelay, fn)
			},
			ChkOf: func(int) *check.Checker { return chk },
			RegOf: func(int) *obs.Registry { return reg },
			Record: func(_ int, ev trace.RouteEvent) {
				if routeRec != nil {
					routeRec(ev)
				}
			},
		})
		if inj != nil && routeCtl != nil {
			inj.OnLinkState = routeCtl.LinkState
		}
	}

	d := transport.NewDriver(net, nil)
	d.Instrument(reg)
	d.AttachCheck(chk)
	if cfg.AbortAfter > 0 {
		for _, st := range d.Stacks {
			st.AbortAfter = cfg.AbortAfter
		}
	}

	var pdqSys *pdq.System
	var paseSys *arbitration.System
	var paseT *endhost.Transport
	var epSys *expresspass.System
	switch cfg.Protocol {
	case DCTCP:
		c := DefaultDCTCP()
		for _, st := range d.Stacks {
			st.NewControl = dctcp.New(c)
		}
	case D2TCP:
		c := DefaultD2TCP()
		for _, st := range d.Stacks {
			st.NewControl = d2tcp.New(c)
		}
	case L2DCT:
		c := DefaultL2DCT()
		for _, st := range d.Stacks {
			st.NewControl = l2dct.New(c)
		}
	case PFabric:
		c := DefaultPFabric()
		for _, st := range d.Stacks {
			st.NewControl = pfabric.New(c)
		}
	case PDQ:
		c := DefaultPDQ()
		c.EarlyTermination = sp.deadlines
		pdqSys = pdq.Attach(d, c)
	case ExpressPass:
		c := DefaultExpressPass()
		c.Seed = cfg.Seed
		epSys = expresspass.Attach(d, c)
	case PASE:
		p := DefaultPASEParams()
		p.Epoch = sp.epoch
		p.CtrlPerHop = net.Cfg.LinkDelay + 5*sim.Microsecond
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
		ec := DefaultPASEEndhost()
		ec.UseRefRate = !cfg.PASE.DisableRefRate
		ec.Probing = !cfg.PASE.DisableProbing
		ec.ReorderGuard = !cfg.PASE.NoReorderGuard
		ec.TaskAware = cfg.PASE.TaskAware
		paseSys, paseT = core.Attach(d, p, ec)
		paseT.Instrument(reg)
		paseSys.Instrument(reg)
		if chk != nil {
			paseSys.AttachCheck(chk)
		}
	default:
		panic(fmt.Sprintf("experiments: unknown protocol %q", cfg.Protocol))
	}
	if inj != nil && paseSys != nil {
		paseSys.Faults = inj
		inj.OnCrash = paseSys.Crash
		inj.OnRestart = paseSys.Restore
	}

	// Tracing hooks chain after protocol attach: PDQ and PASE claim
	// OnFlowDone above, and the traces must observe those runs too.
	// None of the hooks schedule events; only the sampler does, and it
	// is created last so its setup slot mirrors the sharded path.
	var flog *trace.FlowLog
	var sampler *trace.Sampler
	var rec *trace.Recorder
	var srec *trace.ShardRecorder
	var pstream *trace.PerfettoStream
	if cfg.Trace.FlowLog {
		flog = &trace.FlowLog{Cap: traceCap(cfg.Trace.FlowLogCap, trace.DefaultFlowLogCap)}
		if cfg.Trace.FlowLogWriter != nil {
			if err := flog.SpillTo(cfg.Trace.FlowLogWriter); err != nil {
				panic(err)
			}
		}
	}
	if cfg.Trace.Spans {
		rec = trace.NewRecorder(trace.RecorderConfig{
			SampleN: cfg.Trace.SampleN, Seed: cfg.Seed, FlowCap: cfg.Trace.FlowCap,
		})
		if cfg.Trace.SpanWriter != nil {
			pstream = trace.NewPerfettoStream(cfg.Trace.SpanWriter)
			rec.SpillTo(pstream)
		}
		srec = rec.Shard(eng)
		rec.SetMeta(traceMeta(cfg, net))
		if routeCtl != nil {
			routeRec = srec.Route
		}
		if paseT != nil {
			wirePASETraceHooks(srec, paseT, paseSys)
		}
	}
	var flogOf func(pkt.NodeID) *trace.FlowLog
	if flog != nil {
		flogOf = func(pkt.NodeID) *trace.FlowLog { return flog }
	}
	var recOf func(pkt.NodeID) *trace.ShardRecorder
	if srec != nil {
		recOf = func(pkt.NodeID) *trace.ShardRecorder { return srec }
	}
	wireTraceHooks(cfg, d, flogOf, recOf)
	if cfg.Trace.QueueSample > 0 {
		sampler = trace.NewSampler(eng, cfg.Trace.QueueSample, trace.AllPorts(net))
		sampler.Cap = traceCap(cfg.Trace.SampleCap, trace.DefaultSampleCap)
	}

	spec := workload.Spec{
		Pattern:         sp.pattern(net),
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
	var summary metrics.Summary
	var err error
	if cfg.Stream {
		sc = metrics.NewStreamCollector(cfg.SketchEps)
		d.UseSink(sc)
		it := spec.Stream(sim.NewRand(cfg.Seed+1), 1)
		d.ScheduleStream(it.Next)
		summary, err = d.Run(0)
	} else {
		flows := spec.Generate(sim.NewRand(cfg.Seed+1), 1)
		d.Schedule(flows)
		span := flows[len(flows)-1].Start
		summary, err = d.Run(span + sim.Time(10*sim.Second))
	}
	if err != nil {
		panic(err)
	}

	res := PointResult{
		Summary: summary,
		CDF:     d.Sink.CDF(200),
		Queues:  net.QueueStatsTotal(),
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
	if flog != nil {
		if cfg.Trace.FlowLogWriter != nil {
			if err := flog.FlushSpill(); err != nil {
				panic(err)
			}
		} else {
			// Canonicalize even in serial: execution order within one
			// instant is not the (At, Flow, kind) order sharded merges
			// produce, and the two must match byte for byte.
			res.FlowEvents, _ = trace.MergeFlowEvents([]*trace.FlowLog{flog}, flog.Cap)
		}
	}
	if sampler != nil {
		sampler.Stop()
		res.QueueSamples, _ = trace.MergeQueueSamples([]*trace.Sampler{sampler}, sampler.Cap)
	}
	if rec != nil {
		rt := rec.Take()
		rt.Queue = res.QueueSamples
		if pstream != nil {
			if err := rec.FinishSpill(rt); err != nil {
				panic(err)
			}
		}
		res.Trace = rt
	}
	if chk != nil && sc != nil && sc.Completed() > 0 {
		sk := sc.Sketch()
		chk.SketchBounds("metrics/stream",
			int64(summary.P50), int64(summary.P99), sk.Min(), sk.Max())
	}
	if chk != nil {
		// The fabric is quiet: verify every queue's end-state packet
		// conservation, then fold the verdict into the result.
		for _, l := range net.Links {
			if cq, ok := l.Port.Queue().(netem.Checkable); ok {
				cq.CheckConservation()
			}
		}
		res.Violations = chk.Total()
		res.CheckViolations = chk.Violations()
	}
	if reg != nil {
		scrapeRun(reg, eng, net, summary, paseSys, pdqSys, epSys)
		scrapeCheck(reg, chk)
		scrapeTrace(reg, res.Trace)
		if sc != nil {
			sk := sc.Sketch()
			reg.Counter("metrics/sketch_adds").Add(sk.Count())
			reg.Counter("metrics/sketch_buckets_used").Add(int64(sk.BucketsUsed()))
			reg.Counter("metrics/stream_points").Inc()
		}
		res.Obs = reg.Snapshot()
	}
	if chk != nil && !cfg.Check && chk.Total() > 0 {
		// Forced mode (PASE_CHECK) with no caller looking at the
		// verdict: fail loudly so a whole test pass acts as a tripwire.
		panic("experiments: PASE_CHECK run failed: " + chk.Summary())
	}
	return res
}

// scrapeCheck folds the checker's verdict into the registry so run
// manifests carry it: check/violations totals every breach and
// check/violations/<invariant> splits them by invariant.
func scrapeCheck(reg *obs.Registry, chk *check.Checker) {
	if chk == nil {
		return
	}
	reg.Counter("check/enabled").Inc()
	reg.Counter("check/violations").Add(chk.Total())
	for inv, n := range chk.ByInvariant() {
		reg.Counter("check/violations/" + inv).Add(n)
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

// traceCap resolves a retention-cap config value against its default.
func traceCap(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// traceMeta describes the run for the trace header.
func traceMeta(cfg PointConfig, net *topology.Network) trace.Meta {
	return trace.Meta{
		Proto:    string(cfg.Protocol),
		Scenario: string(cfg.Scenario),
		NICBps:   int64(net.Hosts[0].Port().Rate()),
	}
}

// scrapeTrace folds the flight recorder's retention stats into the
// registry so run manifests report what the trace kept and shed.
func scrapeTrace(reg *obs.Registry, rt *trace.RunTrace) {
	if rt == nil {
		return
	}
	st := rt.Stats
	reg.Counter("trace/flows_started").Add(st.FlowsStarted)
	reg.Counter("trace/flows_final").Add(st.FlowsFinal)
	reg.Counter("trace/flows_sampled_out").Add(st.FlowsSampledOut)
	reg.Counter("trace/flows_evicted").Add(st.FlowsEvicted)
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

// wireTraceHooks installs the flow-log and flight-recorder hooks on the
// driver, chaining after any protocol-installed completion hook.
// flogOf/recOf route a flow to its shard's instances by source host
// (constant in serial runs); either may be nil when that trace is off.
// The hooks observe only — they never schedule events — so installing
// them cannot perturb the simulation.
func wireTraceHooks(cfg PointConfig, d *transport.Driver,
	flogOf func(src pkt.NodeID) *trace.FlowLog,
	recOf func(src pkt.NodeID) *trace.ShardRecorder) {

	if flogOf == nil && recOf == nil {
		return
	}
	// PASE holds a new flow at the source until its first arbitration
	// response; every other protocol transmits immediately.
	held := cfg.Protocol == PASE || cfg.Protocol == ExpressPass
	prevStart := d.OnFlowStart
	d.OnFlowStart = func(s *transport.Sender) {
		if flogOf != nil {
			flogOf(s.Spec.Src).Add(trace.FlowEvent{
				At: s.Now(), Kind: "start",
				Flow: s.Spec.ID, Src: s.Spec.Src, Dst: s.Spec.Dst, Size: s.Spec.Size,
			})
		}
		if recOf != nil {
			recOf(s.Spec.Src).FlowArrive(s.Spec.ID, s.Spec.Src, s.Spec.Dst, s.Spec.Size, 0, held)
		}
		if prevStart != nil {
			prevStart(s)
		}
	}
	prevDone := d.OnFlowDone
	d.OnFlowDone = func(s *transport.Sender) {
		if flogOf != nil {
			e := trace.FlowEvent{
				At: s.Now(), Kind: "done",
				Flow: s.Spec.ID, Src: s.Spec.Src, Dst: s.Spec.Dst, Size: s.Spec.Size,
			}
			if s.Aborted {
				e.Kind = "abort"
			} else {
				e.FCT = s.FinishTime.Sub(s.Spec.Start)
			}
			flogOf(s.Spec.Src).Add(e)
		}
		if recOf != nil {
			recOf(s.Spec.Src).FlowEnd(s.Spec.ID, s.Aborted)
		}
		if prevDone != nil {
			prevDone(s)
		}
	}
	if recOf != nil {
		for _, st := range d.Stacks {
			st.OnRetx = func(s *transport.Sender, seq int32) {
				recOf(s.Spec.Src).Mark(s.Spec.ID, trace.MarkRetx, int64(seq))
			}
			st.OnTimeout = func(s *transport.Sender) {
				recOf(s.Spec.Src).Mark(s.Spec.ID, trace.MarkTimeout, 0)
			}
		}
	}
}

// wirePASETraceHooks connects the PASE endpoint and the arbitration
// hierarchy to the flight recorder: allocation grants, epoch (priority
// queue) transitions, fallback/resync marks and every control-plane
// half-exchange. Serial only — PASE never shards.
func wirePASETraceHooks(srec *trace.ShardRecorder, paseT *endhost.Transport, paseSys *arbitration.System) {
	paseT.OnGrant = func(s *transport.Sender, q int8) {
		srec.Mark(s.Spec.ID, trace.MarkGrant, int64(q))
	}
	paseT.OnEpoch = func(s *transport.Sender, q int8) {
		srec.Epoch(s.Spec.ID, int(q))
	}
	paseT.OnFallback = func(s *transport.Sender) {
		srec.Mark(s.Spec.ID, trace.MarkFallback, 0)
	}
	paseT.OnResync = func(s *transport.Sender) {
		srec.Mark(s.Spec.ID, trace.MarkResync, 0)
	}
	paseSys.OnCtrl = func(ev arbitration.CtrlEvent) {
		srec.Ctrl(trace.CtrlSpan{
			Flow: ev.Flow, SrcSide: ev.SrcSide, Level: ev.Level,
			Start: ev.Start, Latency: ev.Latency,
			Outcome: ctrlOutcome(ev.Outcome),
		})
	}
}

// ctrlOutcome maps the arbitration layer's outcome to the trace
// layer's (the packages are decoupled so netem/arbitration never
// import tracing).
func ctrlOutcome(o arbitration.CtrlOutcome) trace.CtrlOutcome {
	switch o {
	case arbitration.CtrlReqDropped:
		return trace.CtrlReqDropped
	case arbitration.CtrlRespDropped:
		return trace.CtrlRespDropped
	case arbitration.CtrlDeadArb:
		return trace.CtrlDead
	}
	return trace.CtrlOK
}
