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
//	paper -fig scale -flows 1000000
//	paper -fig ctrlscale -ctrl central -racks 256
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Hooks a test swaps to see the parsed flags and the options they built.
var (
	parsed    = func(*flag.FlagSet) {}
	runFigure = pase.RunFigure
)

// run is the command: it parses args, runs the chosen figures and
// returns the exit status — 2 for a flag parse error or no figure
// chosen, 1 for a rejected flag value, a failed figure or an invariant
// violation, each named on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	// Named like flag.CommandLine, so -help's first line names the
	// binary as invoked.
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	// Flags that set an option bind straight to it; opts' starting
	// values are the flag defaults, and a zero one takes the figure's.
	opts := pase.FigureOpts{Seed: 1, Obs: true}
	fs.IntVar(&opts.NumFlows, "flows", 0, "foreground flows per simulation point (0 = 2000)")
	fs.Uint64Var(&opts.Seed, "seed", opts.Seed, "workload seed")
	fs.IntVar(&opts.Seeds, "seeds", 0, "average each sweep point over this many seeds (0 = the figure's default)")
	fs.IntVar(&opts.Parallelism, "parallel", 0, "simulation points run concurrently (0 = one per CPU, 1 = serial; output is identical at any setting)")
	fs.BoolVar(&opts.Obs, "obs", opts.Obs, "collect per-run observability and write fig<id>.manifest.json")
	fs.BoolVar(&opts.Check, "check", false, "run every point with the runtime invariant checker; exit 1 on any violation")
	fs.BoolVar(&opts.Stream, "stream", false, "run every point on the bounded-memory streaming path (sketch quantiles)")
	fs.IntVar(&opts.Shards, "shards", 0, "engine shards per simulation point (0/1 = serial; output is identical at any setting; multiplies with -parallel)")
	fs.StringVar(&opts.Ctrl, "ctrl", "", `run one arm of the ctrlscale figure, "hierarchy" or "central" (default: both; other figures reject it)`)
	fs.IntVar(&opts.Racks, "racks", 0, "end the ctrlscale figure's rack sweep at this count (default: full 16..2048 sweep; other figures reject it)")
	var (
		figID     = fs.String("fig", "", "figure id to regenerate: "+figureIDs())
		all       = fs.Bool("all", false, "regenerate every figure")
		list      = fs.Bool("list", false, "list the available figures")
		loads     = fs.String("loads", "", "comma-separated loads a figure sweeps, e.g. 0.2,0.5,0.8, or the one load of a figure that sweeps another axis (default: the figure's)")
		out       = fs.String("out", "", "write each figure's TSV and manifest into this directory (default: manifest only, working directory)")
		faultSpec = fs.String("faults", "", `fault-injection plan applied to every simulation point, e.g. "ctrl:drop=0.2"`)
		progress  = fs.Bool("progress", true, "live progress meter on stderr")
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
		fmt.Fprintln(stderr, "paper:", err)
		return 1
	}

	if *list {
		for _, f := range pase.ListFigures() {
			fmt.Fprintf(stdout, "%-8s %s\n", f.ID, f.Title)
		}
		return 0
	}

	if *faultSpec != "" {
		plan, err := pase.ParseFaults(*faultSpec)
		if err != nil {
			return fail(err)
		}
		opts.Faults = plan
	}
	if *loads != "" {
		for _, s := range strings.Split(*loads, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fail(fmt.Errorf("bad load %q: %v", s, err))
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
		fmt.Fprintln(stderr, "paper: need -fig <id>, -all, or -list")
		return 2
	}
	// A rejected run writes nothing: every figure is checked before any
	// output or profile opens.
	for _, id := range ids {
		if err := pase.ValidateFigure(id, opts); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(err)
		}
	}

	stopCPU, err := cliutil.StartCPUProfile(*cpuProf)
	if err != nil {
		return fail(err)
	}
	defer stopCPU()

	for _, id := range ids {
		start := time.Now()
		meter := cliutil.NewProgress("fig "+id, *progress)
		figOpts := opts
		figOpts.Progress = meter.Update
		fig, err := runFigure(id, figOpts)
		meter.Done()
		if err != nil {
			return fail(err)
		}
		wall := time.Since(start)
		if opts.Check {
			if fig.Violations > 0 {
				fmt.Fprintf(stderr, "paper: fig %s: %d invariant violations\n", id, fig.Violations)
				return 1
			}
			fmt.Fprintf(stderr, "paper: fig %s: invariant checker clean (%d points)\n", id, fig.Points)
		}
		fmt.Fprintln(stdout, fig.Render())
		flows := strconv.Itoa(fig.MinFlows)
		if fig.MaxFlows != fig.MinFlows {
			flows += "-" + strconv.Itoa(fig.MaxFlows)
		}
		fmt.Fprintf(stdout, "(%s flows/point, seed %d, took %v)\n\n", flows, opts.Seed, wall.Round(time.Millisecond))
		base := "fig" + strings.ReplaceAll(id, "/", "_")
		if *out != "" {
			if err := cliutil.WriteFile(filepath.Join(*out, base+".tsv"), fig.WriteTSV); err != nil {
				return fail(err)
			}
		}
		if opts.Obs {
			man := pase.NewRunManifest("paper", fig, start, wall)
			dir := *out
			if dir == "" {
				dir = "."
			}
			path := filepath.Join(dir, base+".manifest.json")
			if err := cliutil.WriteFile(path, man.Write); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "paper: wrote %s\n", path)
		}
	}
	if err := cliutil.WriteMemProfile(*memProf); err != nil {
		return fail(err)
	}
	return 0
}

// figureIDs lists the registered figure ids for the -fig help.
func figureIDs() string {
	var ids []string
	for _, f := range pase.ListFigures() {
		ids = append(ids, f.ID)
	}
	return cliutil.Join(ids)
}
