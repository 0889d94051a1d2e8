// Command pasesim runs one simulation point — a (protocol, scenario,
// load) triple — and prints the headline metrics the paper reports.
// Optional traces expose the run's internals: -flowlog records flow
// lifecycle events (start/done/abort), -queuetrace samples every
// port's queue occupancy, -outcomes dumps per-flow results, and -obs
// writes a run manifest with the merged observability snapshot.
//
// Examples:
//
//	pasesim -protocol PASE -scenario left-right -load 0.7
//	pasesim -protocol pFabric -scenario worker-agg -load 0.8 -cdf
//	pasesim -protocol PASE -scenario left-right -load 0.9 -local-only
//	pasesim -protocol DCTCP -load 0.8 -flowlog flows.tsv -queuetrace q.tsv
//	pasesim -protocol PASE -load 0.7 -obs -manifest run.json
//	pasesim -protocol DCTCP -scenario leaf-spine -load 0.6 -scale 1000000
//	pasesim -protocol ExpressPass -scenario incast-256 -load 0.7 -check
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pase"
	"pase/internal/cliutil"
	"pase/internal/experiments"
)

func main() {
	var (
		protocol  = flag.String("protocol", "PASE", "transport: "+cliutil.Join(pase.Protocols()))
		scenario  = flag.String("scenario", "intra-rack", "scenario: "+cliutil.Join(pase.Scenarios())+" (or ctrlscale-<racks>)")
		load      = flag.Float64("load", 0.7, "offered load in (0,1]")
		flows     = flag.Int("flows", 2000, "number of foreground flows")
		seed      = flag.Uint64("seed", 1, "workload seed")
		seeds     = flag.Int("seeds", 1, "run this many consecutive seeds and report each plus the mean")
		parallel  = flag.Int("parallel", 0, "seed runs executed concurrently (0 = one per CPU, 1 = serial)")
		cdf       = flag.Bool("cdf", false, "print the FCT CDF")
		localOnly = flag.Bool("local-only", false, "PASE: arbitrate access links only")
		noPrune   = flag.Bool("no-pruning", false, "PASE: disable early pruning")
		noDeleg   = flag.Bool("no-delegation", false, "PASE: disable delegation")
		numQueues = flag.Int("queues", 0, "PASE: switch priority queues (default 8)")
		noRefRate = flag.Bool("no-refrate", false, "PASE: ignore the reference rate (PASE-DCTCP)")
		noProbing = flag.Bool("no-probing", false, "PASE: disable probe-based recovery")
		ctrl      = flag.String("ctrl", "", `PASE control plane: "hierarchy" (default) or "central" (single-controller comparison arm)`)
		racks     = flag.Int("racks", 0, "shortcut for -scenario ctrlscale-<racks>: the control-plane-at-scale fabric with this many racks")
		fanOut    = flag.Int("hier-fanout", 0, "PASE: aggregation-tree fan-out of the deep arbitration hierarchy (0 = scenario default)")
		shardsTop = flag.Int("hier-shards", 0, "PASE: replicated root shards of the deep arbitration hierarchy (0 = scenario default)")
		flowLog   = flag.String("flowlog", "", "write the flow event trace (start/done/abort) as TSV to this file")
		queueLog  = flag.String("queuetrace", "", "write sampled queue occupancies as TSV to this file")
		queueInt  = flag.Duration("queueinterval", 100*time.Microsecond, "queue sampling interval for -queuetrace")
		traceOut  = flag.String("trace", "", "write the span-based flight recording as Perfetto trace-event JSON to this file (inspect with pasetrace or ui.perfetto.dev)")
		traceN    = flag.Int("trace-sample", 0, "keep 1 in N flow traces (0/1 = all; misbehaving flows are always kept)")
		traceSp   = flag.Bool("trace-spill", false, "stream the -trace output as flows complete (O(in-flight) memory; forces the serial engine)")
		outcomes  = flag.String("outcomes", "", "write per-flow outcomes (size, fct, deadline, retx) as TSV to this file")
		faultSpec = flag.String("faults", "", `fault-injection plan, e.g. "loss:link=*,class=data,rate=0.01; ctrl:drop=0.2"`)
		reroute   = flag.Bool("reroute", false, "leaf-spine fabrics: reroute around failed fabric links (reacts to -faults link outages)")
		teFlag    = flag.Bool("te", false, "leaf-spine fabrics: periodic traffic engineering, shifting hot ECMP buckets off loaded uplinks")
		teEpoch   = flag.Duration("te-epoch", 0, "TE decision period (0 = 1ms default)")
		abortAft  = flag.Duration("abort-after", 0, "abort flows making no forward progress for this long (0 = never; aborted flows are excluded from AFCT)")
		stream    = flag.Bool("stream", false, "bounded-memory run: flow records fold into sketch quantiles instead of being kept")
		shards    = flag.Int("shards", 0, "engine shards for the run (0/1 = serial; results and traces byte-identical at any setting; PASE/PDQ run serially and say so on stderr)")
		scale     = flag.Int("scale", 0, "shortcut for a large streaming run: implies -stream with this many flows")
		obs       = flag.Bool("obs", false, "collect run observability and write a manifest (see -manifest)")
		chkFlag   = flag.Bool("check", false, "run with the runtime invariant checker; exit 1 on any violation")
		manifest  = flag.String("manifest", "", "manifest output path (implies -obs; default pasesim.manifest.json when -obs is set)")
		progress  = flag.Bool("progress", true, "live progress meter on stderr for multi-seed runs")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *racks < 0 {
		fail(fmt.Errorf("-racks must not be negative, got %d", *racks))
	}
	if *scale < 0 {
		fail(fmt.Errorf("-scale must not be negative, got %d", *scale))
	}
	if *seeds < 1 {
		fail(fmt.Errorf("-seeds must be at least 1, got %d", *seeds))
	}
	if *manifest != "" {
		*obs = true
	}
	if *obs && *manifest == "" {
		*manifest = "pasesim.manifest.json"
	}
	if *scale > 0 {
		*stream = true
		*flows = *scale
	}
	if *stream && *outcomes != "" {
		fail(fmt.Errorf("-outcomes needs per-flow records, which streaming runs do not keep; drop -stream/-scale"))
	}
	if *traceSp && *traceOut == "" {
		fail(fmt.Errorf("-trace-spill needs -trace <file>"))
	}
	if *traceSp && *shards > 1 {
		fail(fmt.Errorf("-trace-spill streams to a single writer and needs the serial engine; drop -shards"))
	}

	cfg := pase.SimConfig{
		Protocol:   pase.Protocol(*protocol),
		Scenario:   pase.Scenario(*scenario),
		Load:       *load,
		NumFlows:   *flows,
		Seed:       *seed,
		Obs:        *obs,
		Check:      *chkFlag,
		Stream:     *stream,
		Shards:     *shards,
		Route:      pase.RouteConfig{Reroute: *reroute, TE: *teFlag, Epoch: pase.Duration(*teEpoch)},
		AbortAfter: pase.Duration(*abortAft),
		Trace:      pase.TraceConfig{FlowLog: *flowLog != "", Spans: *traceOut != "", SampleN: *traceN},
		PASE: pase.PASEOptions{
			LocalOnly:      *localOnly,
			NoPruning:      *noPrune,
			NoDelegation:   *noDeleg,
			NumQueues:      *numQueues,
			DisableRefRate: *noRefRate,
			DisableProbing: *noProbing,
			HierFanOut:     *fanOut,
			HierTopShards:  *shardsTop,
			Central:        *ctrl == "central",
		},
	}
	if *ctrl != "" && *ctrl != "hierarchy" && *ctrl != "central" {
		fail(fmt.Errorf("-ctrl %q: want \"hierarchy\" or \"central\"", *ctrl))
	}
	if *racks > 0 {
		if *racks > experiments.CtrlScaleMaxRacks {
			fail(fmt.Errorf("-racks asks for %d ctrlscale racks, at most %d are supported", *racks, experiments.CtrlScaleMaxRacks))
		}
		cfg.Scenario = pase.Scenario(fmt.Sprintf("%s-%d", pase.ScenarioCtrlScale, *racks))
	}
	if *queueLog != "" || *traceOut != "" {
		// -trace also samples queues: the occupancies become counter
		// tracks in the Perfetto output.
		cfg.Trace.QueueSample = pase.Duration(*queueInt)
	}
	if *faultSpec != "" {
		plan, err := pase.ParseFaults(*faultSpec)
		if err != nil {
			fail(err)
		}
		cfg.Faults = plan
	}

	// Spill mode opens the outputs up front: the trace streams while
	// the run executes instead of being written afterwards.
	var spills []func() error
	openSpill := func(path string) io.Writer {
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		w := bufio.NewWriter(f)
		spills = append(spills, func() error {
			if err := w.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
		return w
	}
	if *traceSp {
		cfg.Trace.SpanWriter = openSpill(*traceOut)
	}
	flowLogSpills := *stream && *flowLog != "" && *shards <= 1
	if flowLogSpills {
		cfg.Trace.FlowLogWriter = openSpill(*flowLog)
	}

	stopCPU, err := cliutil.StartCPUProfile(*cpuProf)
	if err != nil {
		fail(err)
	}
	defer stopCPU()

	started := time.Now()
	var reps []*pase.Report
	if *seeds > 1 {
		if *flowLog != "" || *queueLog != "" || *outcomes != "" || *traceOut != "" {
			fail(fmt.Errorf("-flowlog/-queuetrace/-outcomes/-trace need a single run; drop -seeds"))
		}
		meter := cliutil.NewProgress(fmt.Sprintf("%s @ %.0f%%", *protocol, *load*100), *progress)
		reps, err = pase.SimulateSeeds(cfg, *seeds, *parallel, meter.Update)
		meter.Done()
		if err != nil {
			fail(err)
		}
		printSeedTable(cfg, *seed, reps)
	} else {
		rep, err := pase.Simulate(cfg)
		if err != nil {
			fail(err)
		}
		reps = []*pase.Report{rep}
		printReport(cfg, rep, *cdf)
		for _, fin := range spills {
			if err := fin(); err != nil {
				fail(err)
			}
		}
		if *flowLog != "" {
			if flowLogSpills {
				fmt.Printf("flow trace      %s (streamed)\n", *flowLog)
			} else {
				if err := writeTo(*flowLog, rep.WriteFlowTrace); err != nil {
					fail(err)
				}
				fmt.Printf("flow trace      %s (%d events%s)\n", *flowLog, rep.FlowTraceLen(), evicted(rep.FlowTraceEvicted()))
			}
		}
		if *traceOut != "" {
			if *traceSp {
				fmt.Printf("span trace      %s (streamed)\n", *traceOut)
			} else {
				if err := writeTo(*traceOut, rep.WritePerfetto); err != nil {
					fail(err)
				}
				fmt.Printf("span trace      %s (%d flows, digest %016x)\n",
					*traceOut, rep.SpanTraceLen(), rep.TraceDigest())
			}
		}
		if *queueLog != "" {
			if err := writeTo(*queueLog, rep.WriteQueueTrace); err != nil {
				fail(err)
			}
			fmt.Printf("queue trace     %s (%d samples%s, every %v)\n", *queueLog, rep.QueueTraceLen(), evicted(rep.QueueTraceEvicted()), *queueInt)
		}
		if *outcomes != "" {
			outs := rep.FlowLog()
			if err := writeFlowOutcomes(*outcomes, outs); err != nil {
				fail(err)
			}
			fmt.Printf("flow outcomes   %s (%d flows)\n", *outcomes, len(outs))
		}
	}

	if why := reps[0].ShardFallback; why != "" {
		fmt.Fprintf(os.Stderr, "pasesim: -shards %d ran on the serial engine (%s)\n", *shards, why)
	}

	if *chkFlag {
		var total int64
		var details []string
		for _, r := range reps {
			total += r.Violations
			details = append(details, r.ViolationDetails...)
		}
		if total > 0 {
			fmt.Fprintf(os.Stderr, "pasesim: %d invariant violations\n", total)
			for _, d := range details {
				fmt.Fprintln(os.Stderr, "  ", d)
			}
			os.Exit(1)
		}
		fmt.Println("invariants      clean")
	}

	if *obs {
		man := pase.NewSimManifest("pasesim", cfg, reps, *parallel, started, time.Since(started))
		if err := writeTo(*manifest, man.Write); err != nil {
			fail(err)
		}
		fmt.Printf("manifest        %s\n", *manifest)
	}
	if err := cliutil.WriteMemProfile(*memProf); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pasesim:", err)
	os.Exit(1)
}

// evicted notes how many trace records a retention cap shed, so a
// truncated TSV is not reported as complete.
func evicted(n int64) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf(", %d evicted", n)
}

// printReport dumps one run's headline metrics.
func printReport(cfg pase.SimConfig, rep *pase.Report, cdf bool) {
	fmt.Printf("protocol        %s\n", cfg.Protocol)
	fmt.Printf("scenario        %s\n", cfg.Scenario)
	fmt.Printf("offered load    %.0f%%\n", cfg.Load*100)
	fmt.Printf("flows           %d (%d completed)\n", rep.Flows, rep.Completed)
	if rep.Aborted > 0 {
		fmt.Printf("aborted         %d (excluded from AFCT)\n", rep.Aborted)
	}
	fmt.Printf("AFCT            %v\n", rep.AFCT)
	fmt.Printf("median FCT      %v\n", rep.P50)
	fmt.Printf("99th-pct FCT    %v\n", rep.P99)
	if rep.DeadlineFlows > 0 {
		fmt.Printf("app throughput  %.3f (%d deadline flows)\n", rep.AppThroughput, rep.DeadlineFlows)
	}
	fmt.Printf("loss rate       %.2f%%\n", rep.LossRate*100)
	fmt.Printf("retransmits     %d\n", rep.Retransmits)
	fmt.Printf("timeouts        %d\n", rep.Timeouts)
	if rep.CtrlMessages > 0 {
		fmt.Printf("ctrl messages   %d\n", rep.CtrlMessages)
	}
	if cdf {
		fmt.Println("\nFCT CDF:")
		for _, p := range rep.CDF {
			fmt.Printf("%12v  %.4f\n", p.FCT, p.Fraction)
		}
	}
}

// printSeedTable reports one row per seed plus the mean of the
// headline metrics.
func printSeedTable(cfg pase.SimConfig, firstSeed uint64, reps []*pase.Report) {
	fmt.Printf("protocol        %s\n", cfg.Protocol)
	fmt.Printf("scenario        %s\n", cfg.Scenario)
	fmt.Printf("offered load    %.0f%%\n", cfg.Load*100)
	fmt.Printf("flows/seed      %d\n\n", reps[0].Flows)
	fmt.Println("seed    completed     afct_us      p99_us   loss_pct       retx   timeouts")
	var afct, p99, loss float64
	var retx, timeouts int64
	for i, r := range reps {
		fmt.Printf("%-7d %9d %11d %11d %10.2f %10d %10d\n",
			firstSeed+uint64(i), r.Completed,
			r.AFCT.Microseconds(), r.P99.Microseconds(), r.LossRate*100,
			r.Retransmits, r.Timeouts)
		afct += float64(r.AFCT.Microseconds())
		p99 += float64(r.P99.Microseconds())
		loss += r.LossRate * 100
		retx += r.Retransmits
		timeouts += r.Timeouts
	}
	n := float64(len(reps))
	fmt.Printf("%-7s %9s %11.0f %11.0f %10.2f %10d %10d\n",
		"mean", "", afct/n, p99/n, loss/n,
		retx/int64(len(reps)), timeouts/int64(len(reps)))
}

// writeTo creates path and streams fn into it.
func writeTo(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fn(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFlowOutcomes dumps per-flow outcomes as TSV.
func writeFlowOutcomes(path string, flows []pase.FlowOutcome) error {
	return writeTo(path, func(w io.Writer) error {
		fmt.Fprintln(w, "# id\tsize\tstart_us\tfct_us\tdeadline_us\tdone\taborted\tretx\ttimeouts")
		for _, fl := range flows {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%v\t%v\t%d\t%d\n",
				fl.ID, fl.Size, fl.Start.Microseconds(), fl.FCT.Microseconds(),
				fl.Deadline.Microseconds(), fl.Done, fl.Aborted, fl.Retx, fl.Timeouts)
		}
		return nil
	})
}
