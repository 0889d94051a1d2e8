// Package experiments defines one runnable experiment per table and
// figure in the paper's evaluation (§4): scenario construction, the
// protocol variants compared, the load sweep, and the metric series
// each figure plots. The cmd/paper binary and the repository's
// benchmarks are thin wrappers over this package.
package experiments

import (
	"pase/internal/core/arbitration"
	"pase/internal/netem"
	"pase/internal/sim"
)

// Table 3 of the paper — default per-protocol parameters.
var (
	// DCTCPQueueSize is the switch buffer for DCTCP-family runs.
	DCTCPQueueSize = 225
	// MarkingThreshold is the ECN marking threshold K.
	MarkingThreshold = 65
	// PFabricQueueSize is 2×BDP per Table 3.
	PFabricQueueSize = 76
	// PASEQueueSize is the shared PRIO buffer.
	PASEQueueSize = 500
	// PASENumQueues is the number of priority queues.
	PASENumQueues = 8
	// PDQQueueSize matches the DCTCP buffering (PDQ keeps queues
	// nearly empty by construction).
	PDQQueueSize = 225
	// CreditQueueSize bounds the switch credit class for ExpressPass;
	// the paper's shapers keep it shallow so credit drops act as fast
	// rate feedback.
	CreditQueueSize = 8
	// CreditCtrlQueueSize bounds the ExpressPass ctrl class (ACKs and
	// credit requests).
	CreditCtrlQueueSize = 1024
	// ShallowQueueSize / ShallowMarkK parameterize the shallow-buffer
	// 100 Gbps variant: far less than rate-scaled buffering, which
	// window-based transports need and credit-based ones do not.
	ShallowQueueSize = 64
	ShallowMarkK     = 20
)

// DefaultPASEParams returns Table 3's PASE arbitration parameters
// (8 queues, pruning past the top two, delegation on).
func DefaultPASEParams() arbitration.Params { return arbitration.DefaultParams() }

// Default sweep used across figures.
var DefaultLoads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// DefaultFlows is the flow count of a point or figure that sets none.
const DefaultFlows = 2000

// Workload constants from §4.1.
const (
	// ShortFlowMin/Max bound the query/short-message sizes.
	ShortFlowMin = 2 * 1000
	ShortFlowMax = 198 * 1000
	// DeadlineFlowMin/Max bound the deadline-workload sizes.
	DeadlineFlowMin = 100 * 1000
	DeadlineFlowMax = 500 * 1000
	// DeadlineLo/Hi bound the uniform deadlines.
	DeadlineLo = 5 * sim.Millisecond
	DeadlineHi = 25 * sim.Millisecond
	// BackgroundFlows is the long-flow multiplexing level (75th pct).
	BackgroundFlows = 2
)

// IntraRackHosts is the size of the paper's intra-rack scenarios.
const IntraRackHosts = 20

// HighspeedHosts is the rack size of the high-speed-link scenarios.
const HighspeedHosts = 16

// HighspeedLinkDelay is the per-link propagation delay of the
// high-speed scenarios — short, as in real high-speed fabrics, which
// shrinks the BDP the credit loop must fill.
const HighspeedLinkDelay = 5 * sim.Microsecond

// WorkerFanin is the number of simultaneous worker responses per query
// in the worker-aggregator scenario.
const WorkerFanin = 19

// Routing-control-loop (te figure) parameters: the chaos plan downs
// leaf→spine-0 uplinks one per TEFaultStagger starting at TEFaultStart
// — staggered so no two rules share an instant — each outage lasting
// TEFaultFor; TEAbortAfter is the progress deadline that turns
// blackholed flows into aborts. The values are kept because the
// reroute pins and the te figure are measured at them.
const (
	TEFaultStart   = 3100 * sim.Microsecond
	TEFaultStagger = 1000 * sim.Microsecond
	TEFaultFor     = 250 * sim.Millisecond
	TEAbortAfter   = 100 * sim.Millisecond
)

// ctrlscale (control-plane-at-scale) scenario parameters: two-host
// racks keep the fabric cheap to build at 2048 racks, aggregation
// groups of eight racks mirror real pod sizes (shrunk to the largest
// divisor for odd rack counts), and PASE's deep hierarchy defaults to
// a fan-out-4 tree with a two-way sharded root. The reference rate is
// deliberately FIXED across the sweep: the same aggregate workload
// spread over a growing fabric isolates control-plane cost from
// data-plane load.
const (
	CtrlScaleDefaultRacks = 64
	// CtrlScaleMaxRacks is the largest fabric the façade accepts:
	// set-up allocates about 8 KB per rack (16 MB at 2 048), so this
	// keeps one run's fabric near 128 MB — and a mistyped rack count an
	// error instead of an out-of-memory kill.
	CtrlScaleMaxRacks     = 16384
	CtrlScaleHostsPerRack = 2
	CtrlScaleRacksPerAgg  = 8
	CtrlScaleFanOut       = 4
	CtrlScaleTopShards    = 2
	CtrlScaleReference    = 32 * netem.Gbps
)

// reference capacities for offered load.
func intraRackReference(hosts int) netem.BitRate {
	return netem.BitRate(hosts) * netem.Gbps
}

// leftRightReference is the agg0→core bottleneck.
const leftRightReference = 10 * netem.Gbps
