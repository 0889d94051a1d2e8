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
//	pasesim -protocol DCTCP -scenario leaf-spine -load 0.6 -stream -flows 1000000
//	pasesim -protocol PASE -scenario ctrlscale-512 -load 0.6 -central
//	pasesim -protocol ExpressPass -scenario incast-256 -load 0.7 -check
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pase"
	"pase/internal/cliutil"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Hooks a test swaps to see the parsed flags and the config they built.
var (
	parsed        = func(*flag.FlagSet) {}
	simulate      = pase.Simulate
	simulateSeeds = pase.SimulateSeeds
)

// run is the command: it parses args, runs the point and returns the
// exit status — 2 for a flag parse error, 1 for a rejected flag value,
// a failed run or an invariant violation, each named on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	// Named like flag.CommandLine, so -help's first line names the
	// binary as invoked.
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	// Flags that set a config field bind straight to it; cfg's
	// starting values are the flag defaults.
	cfg := pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: pase.ScenarioIntraRack, Load: 0.7, NumFlows: 2000, Seed: 1}
	fs.StringVar((*string)(&cfg.Protocol), "protocol", string(cfg.Protocol), "transport: "+cliutil.Join(pase.Protocols()))
	fs.StringVar((*string)(&cfg.Scenario), "scenario", string(cfg.Scenario), "scenario: "+cliutil.Join(pase.Scenarios())+" (or ctrlscale-<racks>)")
	fs.Float64Var(&cfg.Load, "load", cfg.Load, "offered load in (0,1]")
	fs.IntVar(&cfg.NumFlows, "flows", cfg.NumFlows, "number of foreground flows")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "workload seed")
	fs.BoolVar(&cfg.PASE.LocalOnly, "local-only", false, "PASE: arbitrate access links only")
	fs.BoolVar(&cfg.PASE.NoPruning, "no-pruning", false, "PASE: disable early pruning")
	fs.BoolVar(&cfg.PASE.NoDelegation, "no-delegation", false, "PASE: disable delegation")
	fs.IntVar(&cfg.PASE.NumQueues, "queues", 0, "PASE: switch priority queues (default 8)")
	fs.BoolVar(&cfg.PASE.DisableRefRate, "no-refrate", false, "PASE: ignore the reference rate (PASE-DCTCP)")
	fs.BoolVar(&cfg.PASE.DisableProbing, "no-probing", false, "PASE: disable probe-based recovery")
	fs.BoolVar(&cfg.PASE.Central, "central", false, "PASE: run the single-controller comparison arm instead of the arbitration hierarchy")
	fs.IntVar(&cfg.PASE.HierFanOut, "hier-fanout", 0, "PASE: aggregation-tree fan-out of the deep arbitration hierarchy (0 = scenario default)")
	fs.IntVar(&cfg.PASE.HierTopShards, "hier-shards", 0, "PASE: replicated root shards of the deep arbitration hierarchy (0 = scenario default)")
	fs.IntVar(&cfg.Trace.SampleN, "trace-sample", 0, "with -trace, keep 1 in N flow traces (0/1 = all; misbehaving flows are always kept)")
	fs.BoolVar(&cfg.Reroute, "reroute", false, "leaf-spine fabrics: reroute around failed fabric links (reacts to -faults link outages)")
	fs.DurationVar((*time.Duration)(&cfg.AbortAfter), "abort-after", 0, "abort flows making no forward progress for this long (0 = never; aborted flows are excluded from AFCT)")
	fs.BoolVar(&cfg.Stream, "stream", false, "bounded-memory run: flow records fold into sketch quantiles instead of being kept")
	fs.IntVar(&cfg.Shards, "shards", 0, "engine shards for the run (0/1 = serial; results byte-identical at any setting; PASE/PDQ and traced or faulted runs run serially and say so on stderr)")
	fs.BoolVar(&cfg.Obs, "obs", false, "collect run observability and write a manifest (see -manifest)")
	fs.BoolVar(&cfg.Check, "check", false, "run with the runtime invariant checker; exit 1 on any violation")
	var (
		seeds     = fs.Int("seeds", 1, "run this many consecutive seeds and report each plus the mean")
		parallel  = fs.Int("parallel", 0, "seed runs executed concurrently (0 = one per CPU, 1 = serial)")
		cdf       = fs.Bool("cdf", false, "print the FCT CDF")
		flowLog   = fs.String("flowlog", "", "write the flow event trace (start/done/abort) as TSV to this file")
		queueLog  = fs.String("queuetrace", "", "write sampled queue occupancies as TSV to this file")
		queueInt  = fs.Duration("queueinterval", 100*time.Microsecond, "queue sampling interval for -queuetrace and -trace")
		traceOut  = fs.String("trace", "", "write the span-based flight recording as Perfetto trace-event JSON to this file (inspect with pasetrace or ui.perfetto.dev)")
		outcomes  = fs.String("outcomes", "", "write per-flow outcomes (size, fct, deadline, retx) as TSV to this file")
		faultSpec = fs.String("faults", "", `fault-injection plan, e.g. "loss:link=*,class=data,rate=0.01; ctrl:drop=0.2"`)
		manifest  = fs.String("manifest", "", "manifest output path (implies -obs; default pasesim.manifest.json when -obs is set)")
		progress  = fs.Bool("progress", true, "live progress meter on stderr for multi-seed runs")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	parsed(fs)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "pasesim:", err)
		return 1
	}

	if *seeds < 1 {
		return fail(fmt.Errorf("-seeds must be at least 1, got %d", *seeds))
	}
	if *manifest != "" {
		cfg.Obs = true
	}
	if cfg.Obs && *manifest == "" {
		*manifest = "pasesim.manifest.json"
	}
	if cfg.Stream && *outcomes != "" {
		return fail(fmt.Errorf("-outcomes needs per-flow records, which streaming runs do not keep; drop -stream"))
	}
	if *queueLog != "" && *queueInt <= 0 {
		return fail(fmt.Errorf("-queueinterval %v: -queuetrace needs a positive sampling interval", *queueInt))
	}
	if *queueLog != "" || *traceOut != "" {
		// -trace also samples queues: the occupancies become counter
		// tracks in the Perfetto output.
		cfg.Trace.QueueSample = pase.Duration(*queueInt)
	}
	if *faultSpec != "" {
		plan, err := pase.ParseFaults(*faultSpec)
		if err != nil {
			return fail(err)
		}
		cfg.Faults = plan
	}

	if *seeds > 1 && (*flowLog != "" || *queueLog != "" || *outcomes != "" || *traceOut != "" || *cdf) {
		return fail(fmt.Errorf("-flowlog/-queuetrace/-outcomes/-trace/-cdf need a single run; drop -seeds"))
	}
	// A rejected run writes nothing: the config is checked before any
	// output or profile opens.
	if err := pase.Validate(cfg); err != nil {
		return fail(err)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["trace-sample"] && *traceOut == "" {
		return fail(fmt.Errorf("-trace-sample samples the -trace output; add -trace <file>"))
	}
	if set["queueinterval"] && *queueLog == "" && *traceOut == "" {
		return fail(fmt.Errorf("-queueinterval sets the -queuetrace and -trace sampling; add one of them"))
	}

	// The flow tracks stream into their files while the run executes,
	// so both open up front.
	var finishes []func() error
	open := func(path string, w *io.Writer) error {
		if path == "" {
			return nil
		}
		f, finish, err := cliutil.CreateFile(path)
		if err == nil {
			*w, finishes = f, append(finishes, finish)
		}
		return err
	}
	if err := open(*traceOut, &cfg.Trace.SpanWriter); err != nil {
		return fail(err)
	}
	if err := open(*flowLog, &cfg.Trace.FlowLogWriter); err != nil {
		return fail(err)
	}

	stopCPU, err := cliutil.StartCPUProfile(*cpuProf)
	if err != nil {
		return fail(err)
	}
	defer stopCPU()

	started := time.Now()
	var reps []*pase.Report
	if *seeds > 1 {
		meter := cliutil.NewProgress(fmt.Sprintf("%s @ %.0f%%", cfg.Protocol, cfg.Load*100), *progress)
		reps, err = simulateSeeds(cfg, *seeds, *parallel, meter.Update)
		meter.Done()
		if err != nil {
			return fail(err)
		}
		printSeedTable(stdout, cfg, reps)
	} else {
		rep, err := simulate(cfg)
		if err != nil {
			return fail(err)
		}
		reps = []*pase.Report{rep}
		printReport(stdout, cfg, rep, *cdf)
		for _, finish := range finishes {
			if err := finish(); err != nil {
				return fail(err)
			}
		}
		if *flowLog != "" {
			fmt.Fprintf(stdout, "flow trace      %s (%d events)\n", *flowLog, rep.Trace.Stats.FlowEvents)
		}
		if *traceOut != "" {
			fmt.Fprintf(stdout, "span trace      %s (%d flows, digest %016x)\n",
				*traceOut, rep.Trace.Stats.FlowsFinal, rep.Trace.Digest())
		}
		if *queueLog != "" {
			if err := cliutil.WriteFile(*queueLog, rep.Trace.WriteQueueSamples); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "queue trace     %s (%d samples%s, every %v)\n", *queueLog, len(rep.Trace.Queue), evicted(rep.Trace.Stats.SamplesEvicted), *queueInt)
		}
		if *outcomes != "" {
			if err := cliutil.WriteFile(*outcomes, func(w io.Writer) error { return writeFlowOutcomes(w, rep) }); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "flow outcomes   %s (%d flows)\n", *outcomes, len(rep.Records))
		}
	}

	if why := reps[0].ShardFallback; why != "" {
		fmt.Fprintf(stderr, "pasesim: -shards %d ran on the serial engine (%s)\n", cfg.Shards, why)
	}

	if cfg.Check {
		var total int64
		for _, r := range reps {
			total += r.Violations
		}
		if total > 0 {
			fmt.Fprintf(stderr, "pasesim: %d invariant violations\n", total)
			for _, r := range reps {
				for _, v := range r.CheckViolations {
					fmt.Fprintln(stderr, "  ", v.String())
				}
			}
			return 1
		}
		fmt.Fprintln(stdout, "invariants      clean")
	}

	if cfg.Obs {
		man := pase.NewSimManifest("pasesim", cfg, reps, *parallel, started, time.Since(started))
		if err := cliutil.WriteFile(*manifest, man.Write); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "manifest        %s\n", *manifest)
	}
	if err := cliutil.WriteMemProfile(*memProf); err != nil {
		return fail(err)
	}
	return 0
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
func printReport(w io.Writer, cfg pase.SimConfig, rep *pase.Report, cdf bool) {
	fmt.Fprintf(w, "protocol        %s\n", cfg.Protocol)
	fmt.Fprintf(w, "scenario        %s\n", cfg.Scenario)
	fmt.Fprintf(w, "offered load    %.0f%%\n", cfg.Load*100)
	fmt.Fprintf(w, "flows           %d (%d completed)\n", rep.Flows, rep.Completed)
	if rep.Aborted > 0 {
		fmt.Fprintf(w, "aborted         %d (excluded from AFCT)\n", rep.Aborted)
	}
	fmt.Fprintf(w, "AFCT            %v\n", rep.AFCT)
	fmt.Fprintf(w, "median FCT      %v\n", rep.P50)
	fmt.Fprintf(w, "99th-pct FCT    %v\n", rep.P99)
	if rep.DeadlineFlows > 0 {
		fmt.Fprintf(w, "app throughput  %.3f (%d deadline flows)\n", rep.AppThroughput, rep.DeadlineFlows)
	}
	fmt.Fprintf(w, "loss rate       %.2f%%\n", rep.LossRate*100)
	fmt.Fprintf(w, "retransmits     %d\n", rep.Retransmits)
	fmt.Fprintf(w, "timeouts        %d\n", rep.Timeouts)
	if rep.CtrlMessages > 0 {
		fmt.Fprintf(w, "ctrl messages   %d\n", rep.CtrlMessages)
	}
	if cdf {
		fmt.Fprintln(w, "\nFCT CDF:")
		for _, p := range rep.CDF {
			fmt.Fprintf(w, "%12v  %.4f\n", p.Value, p.Fraction)
		}
	}
}

// printSeedTable reports one row per seed plus the mean of the
// headline metrics.
func printSeedTable(w io.Writer, cfg pase.SimConfig, reps []*pase.Report) {
	fmt.Fprintf(w, "protocol        %s\n", cfg.Protocol)
	fmt.Fprintf(w, "scenario        %s\n", cfg.Scenario)
	fmt.Fprintf(w, "offered load    %.0f%%\n", cfg.Load*100)
	fmt.Fprintf(w, "flows/seed      %d\n\n", reps[0].Flows)
	fmt.Fprintln(w, "seed    completed     afct_us      p99_us   loss_pct       retx   timeouts")
	var afct, p99, loss float64
	var retx, timeouts int64
	for i, r := range reps {
		fmt.Fprintf(w, "%-7d %9d %11d %11d %10.2f %10d %10d\n",
			cfg.Seed+uint64(i), r.Completed,
			r.AFCT/1000, r.P99/1000, r.LossRate*100,
			r.Retransmits, r.Timeouts)
		afct += float64(r.AFCT / 1000)
		p99 += float64(r.P99 / 1000)
		loss += r.LossRate * 100
		retx += r.Retransmits
		timeouts += r.Timeouts
	}
	n := float64(len(reps))
	fmt.Fprintf(w, "%-7s %9s %11.0f %11.0f %10.2f %10d %10d\n",
		"mean", "", afct/n, p99/n, loss/n,
		retx/int64(len(reps)), timeouts/int64(len(reps)))
}

// writeFlowOutcomes dumps the run's per-flow records as TSV, times in
// whole microseconds.
func writeFlowOutcomes(w io.Writer, rep *pase.Report) error {
	fmt.Fprintln(w, "# id\tsize\tstart_us\tfct_us\tdeadline_us\tdone\taborted\tretx\ttimeouts")
	for _, fl := range rep.Records {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%v\t%v\t%d\t%d\n",
			fl.ID, fl.Size, fl.Start/1000, fl.FCT()/1000,
			fl.Deadline/1000, fl.Done, fl.Aborted, fl.Retx, fl.Timeouts)
	}
	return nil
}
