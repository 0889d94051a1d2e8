package pase_test

import (
	"fmt"
	"log"

	"pase"
)

// Run one PASE simulation and print the metrics the paper reports —
// average and tail flow completion times, loss rate, and the
// arbitration control-plane overhead — then the same workload under
// two of the paper's baselines.
func ExampleSimulate() {
	rep, err := pase.Simulate(pase.SimConfig{
		Protocol: pase.ProtocolPASE,
		Scenario: pase.ScenarioIntraRack, // 20-host rack, U[2,198] KB flows
		Load:     0.7,
		NumFlows: 1000,
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("PASE on a 20-host rack at 70% load:")
	fmt.Printf("  flows completed   %d / %d\n", rep.Completed, rep.Flows)
	fmt.Printf("  average FCT       %v\n", rep.AFCT)
	fmt.Printf("  median FCT        %v\n", rep.P50)
	fmt.Printf("  99th-pct FCT      %v\n", rep.P99)
	fmt.Printf("  loss rate         %.3f%%\n", rep.LossRate*100)
	fmt.Printf("  control messages  %d\n", rep.CtrlMessages)

	// The same API runs any of the paper's baselines on the same
	// workload for a direct comparison.
	for _, p := range []pase.Protocol{pase.ProtocolDCTCP, pase.ProtocolPFabric} {
		r, err := pase.Simulate(pase.SimConfig{
			Protocol: p, Scenario: pase.ScenarioIntraRack,
			Load: 0.7, NumFlows: 1000, Seed: 42,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s on the identical workload: AFCT %v, p99 %v, loss %.3f%%\n",
			p, r.AFCT, r.P99, r.LossRate*100)
	}
	// Output:
	// PASE on a 20-host rack at 70% load:
	//   flows completed   1000 / 1000
	//   average FCT       4.066124ms
	//   median FCT        2.34211ms
	//   99th-pct FCT      23.942188ms
	//   loss rate         0.000%
	//   control messages  0
	//
	// DCTCP on the identical workload: AFCT 7.779026ms, p99 40.145842ms, loss 0.667%
	//
	// pFabric on the identical workload: AFCT 4.444708ms, p99 36.518841ms, loss 24.814%
}

// The worker-aggregator incast that motivates PASE's synthesis
// argument: every query triggers simultaneous responses from the
// rack's workers to one aggregator. pFabric's line-rate start plus
// switch-local dropping wastes upstream capacity on packets that die
// at the aggregator's downlink (Figures 3 and 4 of the paper); PASE's
// end-to-end arbitration throttles doomed flows at their sources.
func ExampleSimulate_incast() {
	fmt.Println("Worker-aggregator fan-in (19 workers per query), 20-host rack")
	fmt.Printf("%-8s %-9s %12s %12s %10s\n", "load", "protocol", "AFCT", "p99 FCT", "loss")

	for _, load := range []float64{0.3, 0.6, 0.9} {
		for _, p := range []pase.Protocol{pase.ProtocolPFabric, pase.ProtocolPASE} {
			rep, err := pase.Simulate(pase.SimConfig{
				Protocol: p,
				Scenario: pase.ScenarioWorkerAgg,
				Load:     load,
				NumFlows: 800,
				Seed:     7,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8.0f%% %-9s %12v %12v %9.1f%%\n",
				load*100, p, rep.AFCT.Std().Round(10_000), rep.P99.Std().Round(10_000), rep.LossRate*100)
		}
	}

	fmt.Println("\npFabric sheds a third or more of its transmissions at high load;")
	fmt.Println("PASE serializes the responses through arbitration and stays lossless,")
	fmt.Println("overtaking pFabric's AFCT once the fabric is busy.")
	// Output:
	// Worker-aggregator fan-in (19 workers per query), 20-host rack
	// load     protocol          AFCT      p99 FCT       loss
	// 30      % pFabric         7.38ms      24.02ms      41.8%
	// 30      % PASE            7.13ms      19.46ms       0.0%
	// 60      % pFabric         9.45ms      48.24ms      42.2%
	// 60      % PASE            7.16ms      21.17ms       0.0%
	// 90      % pFabric         11.6ms      53.32ms      42.5%
	// 90      % PASE             7.8ms      27.96ms       0.0%
	//
	// pFabric sheds a third or more of its transmissions at high load;
	// PASE serializes the responses through arbitration and stays lossless,
	// overtaking pFabric's AFCT once the fabric is busy.
}

// The paper's motivating deadline experiment (Figures 1 and 9c):
// flows of 100–500 KB carry 5–25 ms deadlines and the metric is
// application throughput, the fraction of flows that finish in time.
// Deadline-aware window tweaks (D2TCP) degrade toward plain DCTCP as
// load grows, while PASE's earliest-deadline-first arbitration keeps
// meeting deadlines.
func ExampleSimulate_deadlines() {
	protos := []pase.Protocol{pase.ProtocolDCTCP, pase.ProtocolD2TCP, pase.ProtocolPASE}

	fmt.Println("Deadline workload: 20-host rack, U[100,500] KB flows, 5-25 ms deadlines")
	fmt.Printf("%-8s", "load")
	for _, p := range protos {
		fmt.Printf(" %10s", p)
	}
	fmt.Println("   (fraction of deadlines met)")

	for _, load := range []float64{0.2, 0.4, 0.6, 0.8, 0.9} {
		fmt.Printf("%-7.0f%%", load*100)
		for _, p := range protos {
			rep, err := pase.Simulate(pase.SimConfig{
				Protocol: p,
				Scenario: pase.ScenarioDeadline,
				Load:     load,
				NumFlows: 600,
				Seed:     11,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %10.3f", rep.AppThroughput)
		}
		fmt.Println()
	}
	// Output:
	// Deadline workload: 20-host rack, U[100,500] KB flows, 5-25 ms deadlines
	// load          DCTCP      D2TCP       PASE   (fraction of deadlines met)
	// 20     %      0.935      0.933      0.993
	// 40     %      0.833      0.852      0.927
	// 60     %      0.587      0.587      0.642
	// 80     %      0.362      0.363      0.445
	// 90     %      0.305      0.257      0.352
}

// Switch PASE's internal mechanisms off one at a time and watch what
// each contributes — the reference rate (Fig 13a), the control-plane
// optimizations (Fig 11), probing (§4.3.2), and the number of switch
// priority queues (Fig 12b).
func ExampleSimulate_ablation() {
	variants := []struct {
		name string
		opts pase.PASEOptions
		scen pase.Scenario
		load float64
	}{
		{"full PASE (left-right, 80%)", pase.PASEOptions{}, pase.ScenarioLeftRight, 0.8},
		{"no pruning/delegation", pase.PASEOptions{NoPruning: true, NoDelegation: true}, pase.ScenarioLeftRight, 0.8},
		{"arbitrate access links only", pase.PASEOptions{LocalOnly: true}, pase.ScenarioLeftRight, 0.8},
		{"3 priority queues", pase.PASEOptions{NumQueues: 3}, pase.ScenarioLeftRight, 0.8},
		{"full PASE (rack, 40%)", pase.PASEOptions{}, pase.ScenarioIntraRackLarge, 0.4},
		{"no reference rate (PASE-DCTCP)", pase.PASEOptions{DisableRefRate: true}, pase.ScenarioIntraRackLarge, 0.4},
		{"full PASE (fan-in, 90%)", pase.PASEOptions{}, pase.ScenarioWorkerAgg, 0.9},
		{"no probing", pase.PASEOptions{DisableProbing: true}, pase.ScenarioWorkerAgg, 0.9},
		{"task-aware (FIFO across tasks)", pase.PASEOptions{TaskAware: true}, pase.ScenarioWorkerAgg, 0.9},
	}

	fmt.Printf("%-34s %12s %12s %10s\n", "variant", "AFCT", "p99 FCT", "ctrl msgs")
	for _, v := range variants {
		rep, err := pase.Simulate(pase.SimConfig{
			Protocol: pase.ProtocolPASE,
			Scenario: v.scen,
			Load:     v.load,
			NumFlows: 500,
			Seed:     5,
			PASE:     v.opts,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %12v %12v %10d\n",
			v.name, rep.AFCT.Std().Round(10_000), rep.P99.Std().Round(10_000), rep.CtrlMessages)
	}
	// Output:
	// variant                                    AFCT      p99 FCT  ctrl msgs
	// full PASE (left-right, 80%)              3.21ms      14.48ms      18586
	// no pruning/delegation                    3.02ms      13.17ms      33824
	// arbitrate access links only               8.5ms     206.13ms          0
	// 3 priority queues                        5.16ms      48.31ms      33684
	// full PASE (rack, 40%)                    6.07ms      25.45ms          0
	// no reference rate (PASE-DCTCP)           6.36ms      21.78ms          0
	// full PASE (fan-in, 90%)                  7.86ms      29.34ms          0
	// no probing                               7.72ms      26.46ms          0
	// task-aware (FIFO across tasks)          11.59ms      25.74ms          0
}
