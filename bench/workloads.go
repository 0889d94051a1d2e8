package main

import (
	"fmt"
	"math"
	"strings"

	"pase"
)

// workload is one reference run: a closed, fixed-size batch job made
// of Samples timed pase.Simulate calls of Flows flows each.
type workload struct {
	Name string
	// Why is the reason the workload exists; BENCHMARK.json and the
	// README repeat it.
	Why string
	Cfg pase.SimConfig
	// Flows is the flow count of one sample at -scale 1. It is fixed
	// rather than timed: incast is non-stationary, so a duration would
	// measure a different regime on a faster host.
	Flows int
	// Samples is how many timed samples a 10 s budget buys (-seconds
	// scales it). Every sample runs a seed of its own, so the median is
	// taken over Samples × Flows distinct flows.
	Samples int
	// SetupReps is R: back-to-back NumFlows=1 calls per set-up block,
	// sized so a block lasts about 80 ms.
	SetupReps int
	// Digest1 pins the report digest of -seed 1 at -scale 1 (sample 0,
	// the traced child and the checked child all run that seed). A PR
	// that legitimately moves one must say so.
	Digest1 uint64
}

// workloads is the closed reference set. Flow counts are a fifth of
// the issue's 6–8 s sizing because the driver's contract caps one
// workload run at about 20 s; incast is cut further, to the largest
// count that stays stationary (beyond ~800 flows its backlog random-
// walks and bytes per flow spread 36% across seeds).
var workloads = []workload{
	{
		Name:  "fig9a-dctcp",
		Why:   "plain packet path and control arm: sim heap, RED-ECN ports, static tree routes, window/ACK/RTO clock; no arbitration, RouteTable, shards or streaming (2400 flows x 5 seeds)",
		Cfg:   pase.SimConfig{Protocol: pase.ProtocolDCTCP, Scenario: pase.ScenarioLeftRight, Load: 0.8},
		Flows: 2400, Samples: 5, SetupReps: 50,
		Digest1: 0xf056144136d3e91c,
	},
	{
		Name:  "fig9a-pase",
		Why:   "the paper's protocol on the same fabric and arrivals: adds arbitration, endhost and the 8-band Prio queue; its delta to fig9a-dctcp is the arbitration bill (2000 flows x 5 seeds)",
		Cfg:   pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: pase.ScenarioLeftRight, Load: 0.8},
		Flows: 2000, Samples: 5, SetupReps: 40,
		Digest1: 0xda3aa12ed76b39fd,
	},
	{
		Name:  "fig9a-pfabric",
		Why:   "the scan-based netem.PFabric queue and a retransmission-heavy sender do the work here and nowhere else; a queue rewrite must show here only (2000 flows x 5 seeds)",
		Cfg:   pase.SimConfig{Protocol: pase.ProtocolPFabric, Scenario: pase.ScenarioLeftRight, Load: 0.8},
		Flows: 2000, Samples: 5, SetupReps: 50,
		Digest1: 0x7db49d0bab75e03f,
	},
	{
		Name:  "leafspine-stream",
		Why:   "RouteTable ECMP lookup on every hop, workload.Spec.Stream, StreamCollector and sender/receiver recycling: the bounded-memory path (4000 flows x 5 seeds)",
		Cfg:   pase.SimConfig{Protocol: pase.ProtocolDCTCP, Scenario: pase.ScenarioLeafSpineWide, Load: 0.6, Stream: true},
		Flows: 4000, Samples: 5, SetupReps: 80,
		Digest1: 0x227b9c00fb63745a,
	},
	{
		Name:  "leafspine-stream-shards2",
		Why:   "the same sim layer in rank mode with handoffs and barrier windows; a serial-engine gain that taxes rank mode shows as this and its serial twin moving apart (4000 flows x 4 seeds)",
		Cfg:   pase.SimConfig{Protocol: pase.ProtocolDCTCP, Scenario: pase.ScenarioLeafSpineWide, Load: 0.6, Stream: true, Shards: 2},
		Flows: 4000, Samples: 4, SetupReps: 50,
		Digest1: 0x227b9c00fb63745a,
	},
	{
		Name:  "incast256-expresspass",
		Why:   "the packet-count extreme: credits and CreditQueue pacing at 100 Gbps, most allocations and GCs per flow; fixed small count because the scenario is non-stationary (600 flows x 20 seeds)",
		Cfg:   pase.SimConfig{Protocol: pase.ProtocolExpressPass, Scenario: pase.ScenarioIncast256, Load: 0.7, Stream: true},
		Flows: 600, Samples: 20, SetupReps: 140,
		Digest1: 0xb72b2f3c9c03792e,
	},
	{
		Name:  "ctrlscale512-pase",
		Why:   "the arbitration Tree climb over 6 levels on a 512-rack fabric whose working set and set-up dwarf the others; where setup_s and peak_rss_mb can move (1600 flows x 5 seeds)",
		Cfg:   pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: "ctrlscale-512", Load: 0.6},
		Flows: 1600, Samples: 5, SetupReps: 2,
		Digest1: 0x4fa28a829c3b83b4,
	},
}

// selectWorkloads resolves a comma-separated -workload value; empty
// selects the whole set.
func selectWorkloads(list string) ([]workload, error) {
	if list == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(list, ",") {
		w, ok := workloadByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled returns the flow count at the given -scale, at least 20 so a
// self-test run still completes flows on every fabric.
func (w workload) scaled(scale float64) int {
	n := int(math.Round(float64(w.Flows) * scale))
	if n < 20 {
		n = 20
	}
	return n
}

// sampleSeed is the SimConfig.Seed of timed sample i. Sample 0 runs
// -seed itself (so do the traced and checked children, whose digests
// must match it); later samples step by 2^32 so the driver's small
// consecutive seeds never share a sample.
func sampleSeed(seed uint64, i int) uint64 { return seed + uint64(i)<<32 }
