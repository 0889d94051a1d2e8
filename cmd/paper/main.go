// Command paper regenerates the evaluation tables and figures of
// "Friends, not Foes" (SIGCOMM 2014): for every figure it runs the
// corresponding protocols across the load sweep on the corresponding
// scenario and prints the same series the paper plots. Each figure run
// also emits a JSON run manifest — parameters, git revision,
// wall-clock cost and the merged observability snapshot — next to the
// TSV output (or in the working directory when -out is unset).
//
// Examples:
//
//	paper -list
//	paper -fig 9a
//	paper -fig 10c -flows 4000
//	paper -all -flows 1000
//	paper -fig 9a -parallel 4 -cpuprofile cpu.out
//	paper -fig 9a -stream
//	paper -scale 1000000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pase"
	"pase/internal/cliutil"
)

func main() {
	var (
		figID     = flag.String("fig", "", "figure id to regenerate: "+figureIDs())
		all       = flag.Bool("all", false, "regenerate every figure")
		list      = flag.Bool("list", false, "list the available figures")
		flows     = flag.Int("flows", 2000, "foreground flows per simulation point")
		seed      = flag.Uint64("seed", 1, "workload seed")
		seeds     = flag.Int("seeds", 1, "average each sweep point over this many seeds")
		loads     = flag.String("loads", "", "comma-separated load override, e.g. 0.2,0.5,0.8")
		out       = flag.String("out", "", "write each figure's TSV and manifest into this directory (default: manifest only, working directory)")
		parallel  = flag.Int("parallel", 0, "simulation points run concurrently (0 = one per CPU, 1 = serial; output is identical at any setting)")
		obs       = flag.Bool("obs", true, "collect per-run observability and write fig<id>.manifest.json")
		chkFlag   = flag.Bool("check", false, "run every point with the runtime invariant checker; exit 1 on any violation")
		faultSpec = flag.String("faults", "", `fault-injection plan applied to every simulation point, e.g. "ctrl:drop=0.2"`)
		stream    = flag.Bool("stream", false, "run every point on the bounded-memory streaming path (sketch quantiles)")
		shards    = flag.Int("shards", 0, "engine shards per simulation point (0/1 = serial; output is identical at any setting; multiplies with -parallel)")
		traceOn   = flag.Bool("trace", false, "attach the span flight recorder to every point; trace/* retention counters and arb/rtt/* histograms land in the manifest snapshot")
		traceN    = flag.Int("trace-sample", 1, "with -trace, keep 1-in-N flow traces (violating/faulted flows always kept)")
		scale     = flag.Int("scale", 0, "shortcut for the scale figure: -fig scale -stream with this many flows at the sweep top")
		ctrl      = flag.String("ctrl", "", `restrict the ctrlscale figure's PASE arm: "hierarchy" or "central" (default: both arms)`)
		racks     = flag.Int("racks", 0, "restrict the ctrlscale figure to one rack count (default: full 16..2048 sweep)")
		progress  = flag.Bool("progress", true, "live progress meter on stderr")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *list {
		for _, f := range pase.ListFigures() {
			fmt.Printf("%-8s %s\n", f.ID, f.Title)
		}
		return
	}

	if *scale < 0 {
		fmt.Fprintf(os.Stderr, "paper: -scale must not be negative, got %d\n", *scale)
		os.Exit(1)
	}
	if *scale > 0 {
		*figID = "scale"
		*flows = *scale
		*stream = true
	}
	opts := pase.FigureOpts{NumFlows: *flows, Seed: *seed, Seeds: *seeds,
		Parallelism: *parallel, Obs: *obs, Check: *chkFlag, Stream: *stream,
		Shards: *shards, Trace: pase.TraceConfig{Spans: *traceOn, SampleN: *traceN},
		Ctrl: *ctrl, Racks: *racks}
	if *faultSpec != "" {
		plan, err := pase.ParseFaults(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		opts.Faults = plan
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
	}
	if *loads != "" {
		for _, s := range strings.Split(*loads, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paper: bad load %q: %v\n", s, err)
				os.Exit(1)
			}
			opts.Loads = append(opts.Loads, v)
		}
	}

	var ids []string
	switch {
	case *all:
		for _, f := range pase.ListFigures() {
			ids = append(ids, f.ID)
		}
	case *figID != "":
		ids = []string{*figID}
	default:
		fmt.Fprintln(os.Stderr, "paper: need -fig <id>, -all, or -list")
		os.Exit(2)
	}

	stopCPU, err := cliutil.StartCPUProfile(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
	defer stopCPU()

	for _, id := range ids {
		start := time.Now()
		meter := cliutil.NewProgress("fig "+id, *progress)
		figOpts := opts
		figOpts.Progress = meter.Update
		fig, err := pase.RunFigure(id, figOpts)
		meter.Done()
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		wall := time.Since(start)
		if *chkFlag {
			if fig.Violations > 0 {
				fmt.Fprintf(os.Stderr, "paper: fig %s: %d invariant violations\n", id, fig.Violations)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "paper: fig %s: invariant checker clean (%d points)\n", id, fig.Points)
		}
		fmt.Println(fig.Render())
		fmt.Printf("(%d flows/point, seed %d, took %v)\n\n", *flows, *seed, wall.Round(time.Millisecond))
		base := "fig" + strings.ReplaceAll(id, "/", "_")
		if *out != "" {
			if err := writeFile(filepath.Join(*out, base+".tsv"), fig.WriteTSV); err != nil {
				fmt.Fprintln(os.Stderr, "paper:", err)
				os.Exit(1)
			}
		}
		if *obs {
			man := pase.NewRunManifest("paper", fig, figOpts, start, wall)
			dir := *out
			if dir == "" {
				dir = "."
			}
			path := filepath.Join(dir, base+".manifest.json")
			if err := writeFile(path, man.Write); err != nil {
				fmt.Fprintln(os.Stderr, "paper:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "paper: wrote %s\n", path)
		}
	}
	if err := cliutil.WriteMemProfile(*memProf); err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
}

// figureIDs lists the registered figure ids for the -fig help.
func figureIDs() string {
	var ids []string
	for _, f := range pase.ListFigures() {
		ids = append(ids, f.ID)
	}
	return cliutil.Join(ids)
}

// writeFile creates path and streams fn into it.
func writeFile(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
