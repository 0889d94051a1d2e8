// Command pasetrace analyzes a Perfetto trace-event JSON file produced
// by pasesim -trace (or by a pase.SimConfig.Trace.SpanWriter). It
// validates the file against the exporter's schema — exiting 1 on
// anything malformed, so CI can gate on it — and prints the run's
// story: the top-N slowest flows with a critical-path breakdown
// (arbitration wait vs wire serialization vs queueing), control-plane
// latency tables per arbitration hierarchy level, and per-port queue
// peaks.
//
// Examples:
//
//	pasesim -protocol PASE -scenario left-right -trace t.json
//	pasetrace t.json
//	pasetrace -top 20 -queues 5 t.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// event is one trace-event JSON object, as the exporter writes them.
type event struct {
	Ph   string          `json:"ph"`
	Pid  int             `json:"pid"`
	Tid  int64           `json:"tid"`
	Ts   float64         `json:"ts"` // µs with ns fractions
	Dur  float64         `json:"dur"`
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Args json.RawMessage `json:"args"`
}

type traceFile struct {
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
	TraceEvents     []event           `json:"traceEvents"`
}

type flowArgs struct {
	Src       int   `json:"src"`
	Dst       int   `json:"dst"`
	Size      int64 `json:"size"`
	Flagged   bool  `json:"flagged"`
	Aborted   bool  `json:"aborted"`
	Truncated int   `json:"truncated"`
}

type ctrlArgs struct {
	Outcome string `json:"outcome"`
	Level   int    `json:"level"`
}

type queueArgs struct {
	Pkts  int64 `json:"pkts"`
	Bytes int64 `json:"bytes"`
}

// flow accumulates one flow track's critical path.
type flow struct {
	id     int64
	args   flowArgs
	fctUS  float64
	waitUS float64 // wait-ctrl phase spans
	xferUS float64 // xfer qN phase spans
	marks  map[string]int
}

type levelStats struct {
	outcomes map[string]int
	okLatUS  []float64
}

type queueStats struct {
	peakPkts  int64
	peakBytes int64
	samples   int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, analyzes the trace onto stdout
// and returns the exit status — 2 for a usage error, 1 for a file that
// cannot be read or breaks the exporter's schema, named on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pasetrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topN := fs.Int("top", 10, "slowest flows to break down")
	queueN := fs.Int("queues", 10, "queue tracks to list (by peak bytes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: pasetrace [-top N] [-queues N] <trace.json>")
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "pasetrace: "+format+"\n", a...)
		return 1
	}
	path := fs.Arg(0)
	raw, err := os.ReadFile(path)
	if err != nil {
		return fail("%v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return fail("%s: invalid JSON: %v", path, err)
	}
	if err := validate(&tf); err != nil {
		return fail("%s: invalid trace: %v", path, err)
	}

	flows := map[int64]*flow{}
	levels := map[int]*levelStats{}
	queues := map[string]*queueStats{}
	for i := range tf.TraceEvents {
		ev := &tf.TraceEvents[i]
		switch {
		case ev.Cat == "flow" && ev.Ph == "X":
			var fa flowArgs
			if err := json.Unmarshal(ev.Args, &fa); err != nil {
				return fail("%s: event %d: bad flow args: %v", path, i, err)
			}
			f := getFlow(flows, ev.Tid)
			f.args, f.fctUS = fa, ev.Dur
		case ev.Cat == "phase" && ev.Ph == "X":
			f := getFlow(flows, ev.Tid)
			if ev.Name == "wait-ctrl" {
				f.waitUS += ev.Dur
			} else {
				f.xferUS += ev.Dur
			}
		case ev.Cat == "mark" && ev.Ph == "i":
			getFlow(flows, ev.Tid).marks[ev.Name]++
		case ev.Cat == "ctrl" && ev.Ph == "X":
			var ca ctrlArgs
			if err := json.Unmarshal(ev.Args, &ca); err != nil {
				return fail("%s: event %d: bad ctrl args: %v", path, i, err)
			}
			ls := levels[ca.Level]
			if ls == nil {
				ls = &levelStats{outcomes: map[string]int{}}
				levels[ca.Level] = ls
			}
			ls.outcomes[ca.Outcome]++
			if ca.Outcome == "ok" {
				ls.okLatUS = append(ls.okLatUS, ev.Dur)
			}
		case ev.Ph == "C":
			var qa queueArgs
			if err := json.Unmarshal(ev.Args, &qa); err != nil {
				return fail("%s: event %d: bad counter args: %v", path, i, err)
			}
			qs := queues[ev.Name]
			if qs == nil {
				qs = &queueStats{}
				queues[ev.Name] = qs
			}
			qs.samples++
			if qa.Pkts > qs.peakPkts {
				qs.peakPkts = qa.Pkts
			}
			if qa.Bytes > qs.peakBytes {
				qs.peakBytes = qa.Bytes
			}
		}
	}

	nicBps, _ := strconv.ParseInt(tf.OtherData["nic_bps"], 10, 64)
	fmt.Fprintf(stdout, "%s: proto %s, scenario %s, %d events, %d flows, %d queue tracks\n",
		path, tf.OtherData["proto"], tf.OtherData["scenario"],
		len(tf.TraceEvents), len(flows), len(queues))

	printSlowest(stdout, flows, *topN, nicBps)
	printCtrl(stdout, levels)
	printQueues(stdout, queues, *queueN)
	return 0
}

func getFlow(m map[int64]*flow, id int64) *flow {
	f := m[id]
	if f == nil {
		f = &flow{id: id, marks: map[string]int{}}
		m[id] = f
	}
	return f
}

// validate enforces the exporter's schema so a truncated or hand-edited
// file fails loudly instead of producing silently-wrong tables.
func validate(tf *traceFile) error {
	if tf.DisplayTimeUnit != "ns" {
		return fmt.Errorf("displayTimeUnit %q, want \"ns\"", tf.DisplayTimeUnit)
	}
	if tf.OtherData["tool"] != "pase" {
		return fmt.Errorf("otherData.tool %q, want \"pase\"", tf.OtherData["tool"])
	}
	for _, k := range []string{"proto", "scenario", "nic_bps", "sample_n", "seed"} {
		if _, ok := tf.OtherData[k]; !ok {
			return fmt.Errorf("otherData missing %q", k)
		}
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("no trace events")
	}
	procs := map[int]bool{}
	for i := range tf.TraceEvents {
		ev := &tf.TraceEvents[i]
		switch ev.Ph {
		case "M":
			procs[ev.Pid] = true
		case "X", "i", "s", "f", "C":
		default:
			return fmt.Errorf("event %d: unknown phase %q", i, ev.Ph)
		}
		if ev.Ph != "M" && ev.Ts < 0 {
			return fmt.Errorf("event %d: negative timestamp", i)
		}
		if ev.Ph == "X" && ev.Dur < 0 {
			return fmt.Errorf("event %d: negative duration", i)
		}
	}
	for _, pid := range []int{1, 2, 3} {
		if !procs[pid] {
			return fmt.Errorf("missing process_name metadata for pid %d", pid)
		}
	}
	return nil
}

func printSlowest(w io.Writer, flows map[int64]*flow, topN int, nicBps int64) {
	all := make([]*flow, 0, len(flows))
	for _, f := range flows {
		if f.fctUS > 0 { // orphan phase/mark tids guard
			all = append(all, f)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].fctUS != all[j].fctUS {
			return all[i].fctUS > all[j].fctUS
		}
		return all[i].id < all[j].id
	})
	if topN > len(all) {
		topN = len(all)
	}
	fmt.Fprintf(w, "\nTop %d slowest flows (critical path):\n", topN)
	fmt.Fprintf(w, "  %6s %6s %9s %12s %11s %11s %9s  %s\n",
		"flow", "src", "size_B", "fct_us", "wait-ctrl%", "serialize%", "queued%", "notes")
	for _, f := range all[:topN] {
		serialUS := 0.0
		if nicBps > 0 {
			serialUS = float64(f.args.Size) * 8 * 1e6 / float64(nicBps)
		}
		queuedUS := f.fctUS - f.waitUS - serialUS
		if queuedUS < 0 {
			queuedUS = 0
		}
		pct := func(v float64) float64 {
			if f.fctUS <= 0 {
				return 0
			}
			return 100 * v / f.fctUS
		}
		notes := ""
		if f.args.Aborted {
			notes += " aborted"
		}
		if f.args.Flagged {
			notes += " flagged"
		}
		keys := make([]string, 0, len(f.marks))
		for k := range f.marks {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			notes += fmt.Sprintf(" %s×%d", k, f.marks[k])
		}
		fmt.Fprintf(w, "  %6d %6d %9d %12.3f %10.1f%% %10.1f%% %8.1f%% %s\n",
			f.id, f.args.Src, f.args.Size, f.fctUS,
			pct(f.waitUS), pct(serialUS), pct(queuedUS), notes)
	}
}

func printCtrl(w io.Writer, levels map[int]*levelStats) {
	if len(levels) == 0 {
		fmt.Fprintf(w, "\nControl plane: no arbitration spans (protocol without an arbitrator, or sampled out).\n")
		return
	}
	lvls := make([]int, 0, len(levels))
	for l := range levels {
		lvls = append(lvls, l)
	}
	sort.Ints(lvls)
	fmt.Fprintf(w, "\nControl-plane latency by hierarchy level:\n")
	fmt.Fprintf(w, "  %5s %8s %8s %8s %8s %10s %10s %10s\n",
		"level", "ok", "reqdrop", "respdrop", "dead", "p50_us", "p99_us", "mean_us")
	for _, l := range lvls {
		ls := levels[l]
		p50, p99, mean := latStats(ls.okLatUS)
		fmt.Fprintf(w, "  %5d %8d %8d %8d %8d %10.3f %10.3f %10.3f\n",
			l, ls.outcomes["ok"], ls.outcomes["req_dropped"],
			ls.outcomes["resp_dropped"], ls.outcomes["dead_arb"],
			p50, p99, mean)
	}
}

func latStats(lat []float64) (p50, p99, mean float64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	q := func(f float64) float64 { return s[int(f*float64(len(s)-1))] }
	return q(0.5), q(0.99), sum / float64(len(s))
}

func printQueues(w io.Writer, queues map[string]*queueStats, queueN int) {
	if len(queues) == 0 {
		fmt.Fprintf(w, "\nQueues: no occupancy samples (run without queue sampling).\n")
		return
	}
	names := make([]string, 0, len(queues))
	for n := range queues {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := queues[names[i]], queues[names[j]]
		if a.peakBytes != b.peakBytes {
			return a.peakBytes > b.peakBytes
		}
		return names[i] < names[j]
	})
	if queueN > len(names) {
		queueN = len(names)
	}
	fmt.Fprintf(w, "\nQueue peaks (top %d of %d ports by bytes):\n", queueN, len(names))
	fmt.Fprintf(w, "  %-24s %10s %12s %9s\n", "port", "peak_pkts", "peak_bytes", "samples")
	for _, n := range names[:queueN] {
		q := queues[n]
		fmt.Fprintf(w, "  %-24s %10d %12d %9d\n", n, q.peakPkts, q.peakBytes, q.samples)
	}
}
