// Command workloadgen emits synthetic data-center flow traces — the
// same generators the simulator uses — as tab-separated values, for
// inspection or reuse by external tools.
//
// Example:
//
//	workloadgen -pattern all-to-all -hosts 20 -load 0.6 -flows 100
//	workloadgen -pattern left-right -hosts 160 -fanin 0 -deadlines
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"pase/internal/netem"
	"pase/internal/sim"
	"pase/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the trace to stdout and
// returns the exit status — 2 for a flag parse error, 1 for a flag
// value the generator cannot honour, named on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("workloadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		pattern   = fs.String("pattern", "all-to-all", "all-to-all or left-right")
		hosts     = fs.Int("hosts", 20, "number of hosts")
		load      = fs.Float64("load", 0.6, "offered load in (0,1]")
		flows     = fs.Int("flows", 100, "number of flows")
		seed      = fs.Uint64("seed", 1, "generator seed")
		minSize   = fs.Int64("min-size", 2000, "min flow size (bytes)")
		maxSize   = fs.Int64("max-size", 198000, "max flow size (bytes)")
		fanin     = fs.Int("fanin", 0, "workers per query (0 = independent flows)")
		deadlines = fs.Bool("deadlines", false, "assign U[5,25]ms deadlines")
		refGbps   = fs.Float64("ref-gbps", 0, "reference capacity (default hosts × 1 Gbps)")
		bg        = fs.Int("background", 0, "long-lived background flows")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "workloadgen: "+format+"\n", a...)
		return 1
	}
	switch {
	case *pattern != "all-to-all" && *pattern != "left-right":
		return fail("-pattern %q: want all-to-all or left-right", *pattern)
	case *hosts < 2:
		return fail("-hosts %d: need at least 2", *hosts)
	case !(*load > 0 && *load <= 1):
		return fail("-load %v: must be in (0,1]", *load)
	case *flows < 0:
		return fail("-flows %d: must not be negative", *flows)
	case *minSize < 1 || *maxSize < *minSize:
		return fail("-min-size %d -max-size %d: need 1 <= min-size <= max-size", *minSize, *maxSize)
	case *fanin > 1 && *pattern != "all-to-all":
		return fail("-fanin %d: needs -pattern all-to-all", *fanin)
	case !(*refGbps >= 0):
		return fail("-ref-gbps %v: must not be negative", *refGbps)
	case *bg < 0:
		return fail("-background %d: must not be negative", *bg)
	}

	var pat workload.Pattern = workload.AllToAll{Hosts: workload.HostRange(0, *hosts)}
	if *pattern == "left-right" {
		half := *hosts / 2
		pat = workload.LeftRight{
			Left:  workload.HostRange(0, half),
			Right: workload.HostRange(half, *hosts),
		}
	}

	ref := netem.BitRate(*refGbps * 1e9)
	if ref == 0 {
		ref = netem.BitRate(*hosts) * netem.Gbps
	}
	spec := workload.Spec{
		Pattern:         pat,
		Sizes:           workload.UniformSize{Min: *minSize, Max: *maxSize},
		Load:            *load,
		Reference:       ref,
		NumFlows:        *flows,
		Fanin:           *fanin,
		BackgroundFlows: *bg,
	}
	if *deadlines {
		spec.DeadlineMin = 5 * sim.Millisecond
		spec.DeadlineMax = 25 * sim.Millisecond
	}
	if err := spec.Validate(); err != nil {
		return fail("%v", err)
	}

	w := bufio.NewWriter(stdout)
	fmt.Fprintln(w, "# id\tsrc\tdst\tsize_bytes\tstart_us\tdeadline_us\tbackground")
	for _, f := range spec.Generate(sim.NewRand(*seed), 1) {
		deadline := int64(0)
		if f.Deadline > 0 {
			deadline = int64(f.Deadline) / 1000
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
			f.ID, f.Src, f.Dst, f.Size, int64(f.Start)/1000, deadline, f.Background)
	}
	if err := w.Flush(); err != nil {
		return fail("%v", err)
	}
	return 0
}
