package experiments

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pase/internal/core/arbitration"
	"pase/internal/faults"
	"pase/internal/route"
	"pase/internal/sim"
	"pase/internal/trace"
)

// The pin registry is the determinism contract in one table (DESIGN.md
// §6.3 renders it). A row's value lives in its file under testdata/, or
// else as a line of testdata/pins.tsv: a digest as is, any other output
// as its FNV-64. After a deliberate behaviour change, re-pin with
//
//	PASE_UPDATE=1 go test -run TestPins ./internal/experiments
//
// It rewrites values from base runs only, still compares every twin
// with the new value, rewrites DESIGN.md's table, and fails naming each
// row that moved; review `git diff`, then run again without the flag.
// Never re-pin over ./...: bench's test also honours PASE_UPDATE and
// would rewrite BENCHMARK.json.

// pin is one row of the registry.
type pin struct {
	name  string
	out   out
	input input
	// file under testdata/ holds the value; "" keeps it in pins.tsv.
	file string
	// twins are variants, each a "+"-joined list of twin kinds (see
	// applyTwin), whose output must equal the stored value.
	twins    []string
	flat     []string // series an -axis golden may hold constant along x
	protects string
	mover    string // the ROADMAP item allowed to move the value
}

// input is what a row runs: a point (cfg) or a registered figure.
type input struct {
	cfg  PointConfig
	fig  string
	opts Opts
}

// out is one kind of pinned output.
type out struct {
	name string
	run  func(t *testing.T, in input) []byte
}

var pins = pinTable()

func pinTable() []pin {
	shards := []string{"shards=1", "shards=2", "shards=3", "shards=4"}
	shards24 := []string{"shards=2", "shards=4"}
	point := func(cfg PointConfig) input { return input{cfg: cfg} }
	// A conformance row runs one transport on a busy rack (80% load,
	// all-to-all: queueing, marking, drops, retransmissions) in ~100 ms.
	// D2TCP runs the deadline workload; without deadlines it is DCTCP.
	conf := func(p Protocol, mover, what string, twins ...string) pin {
		s := IntraRack
		if p == D2TCP {
			s = Deadline
		}
		cfg := PointConfig{Protocol: p, Scenario: s, Load: 0.8, Seed: 7, NumFlows: 120, Check: true}
		return pin{name: "conformance-" + string(p), out: digestOut, input: point(cfg), twins: twins,
			protects: "every flow outcome and queue total of " + string(p) + " on a busy rack: " + what, mover: mover}
	}
	// A control-plane row runs the 16-rack ctrlscale fabric at 80% load,
	// cross-rack enough that refreshes climb the whole hierarchy.
	ctrlCfg := func(opt PASEOptions) PointConfig {
		return PointConfig{Protocol: PASE, Scenario: Scenario("ctrlscale-16"), Load: 0.8, Seed: 7, NumFlows: 120, Check: true, PASE: opt}
	}
	ctrl := func(arm string, opt PASEOptions, what string, twins ...string) pin {
		return pin{name: "ctrlplane-" + arm, out: digestOut, input: point(ctrlCfg(opt)), twins: twins,
			protects: what + " on ctrlscale-16, every flow outcome and queue total", mover: "item 6"}
	}
	// An arbstats row pins the control plane's own counts, which no
	// digest covers: a fig-9a left-right point climbs the flat 3-tier
	// arm, a ctrlscale-16 point the hierarchy or the central arm.
	arbstats := func(arm string, cfg PointConfig, what string) pin {
		return pin{name: "arbstats-" + arm, out: arbstatsOut, file: "arbstats/" + arm + ".txt", input: point(cfg),
			protects: "the control-plane counts (arbitration.Stats, arb/msgs/level*) of " + what, mover: "item 6"}
	}
	// A workcounts row pins how much work a run does — events, calendar
	// overflows, pFabric scan slots, sorted arbitration entries — on
	// the configs the benchmark times, at pin size.
	workcounts := func(name string, cfg PointConfig, mover string) pin {
		return pin{name: "workcounts-" + name, out: workcountsOut, file: "workcounts/" + name + ".txt", input: point(cfg),
			twins:    []string{"rerun", "gomaxprocs=1", "gomaxprocs=2"},
			protects: "the work counts (sim/*, queue/pfabric/slots_scanned, arb/entries_sorted) of " + name, mover: mover}
	}
	fig9a := func(p Protocol) PointConfig {
		return PointConfig{Protocol: p, Scenario: LeftRight, Load: 0.8, Seed: 1, NumFlows: 120}
	}
	flat := func(opt PASEOptions) PointConfig {
		return PointConfig{Protocol: PASE, Scenario: LeftRight, Load: 0.8, Seed: 1, NumFlows: 300, Check: true, PASE: opt}
	}
	goldenTrace := func(tc TraceConfig) input {
		return point(PointConfig{Protocol: DCTCP, Scenario: LeftRight, Load: 0.6, Seed: 1, NumFlows: 40, Trace: tc})
	}
	traced := tracedPoint()
	traced.Obs = true
	tracedTwins := append(slices.Clone(shards), "shards=1+stream", "shards=2+stream", "shards=3+stream", "shards=4+stream")
	sampled := tracedPoint()
	sampled.Trace.SampleN = 8
	teReroute := teChaosPoint(DCTCP, route.Config{Reroute: true, TE: true})
	teReroute.Obs = false
	tracedTE := teChaosPoint(DCTCP, route.Config{TE: true})
	tracedTE.Obs, tracedTE.Trace = false, TraceConfig{Spans: true}
	faulted := func(c PointConfig) PointConfig { c.Faults = flapLossPlan(); return c }

	ps := []pin{
		conf(DCTCP, "none", "ECN-proportional window cuts on RED marking"),
		conf(D2TCP, "none", "deadline-weighted window cuts (deadline workload)"),
		conf(L2DCT, "none", "flow-size-weighted window cuts"),
		conf(PFabric, "none", "priority drop and dequeue, probe-mode recovery"),
		conf(PDQ, "item 6", "preemptive switch-side flow scheduling"),
		conf(PASE, "item 6", "arbitration, the reference rate and the 8-band priority queues", "rerun"),
		conf(ExpressPass, "none", "credit pacing and credit-loss rate feedback"),
		ctrl("hierarchy", PASEOptions{}, "the default arbitration hierarchy (fan-out 4, 2 root shards), untouched by engine sharding", shards...),
		ctrl("deep-hierarchy", PASEOptions{HierFanOut: 2, HierTopShards: 1}, "a five-level binary hierarchy's delegation and pruning", "rerun"),
		ctrl("central", PASEOptions{Central: true}, "the centralized arm's queueing and per-epoch sync"),
		arbstats("flat", flat(PASEOptions{}), "the flat 3-tier climb with delegation and early pruning"),
		arbstats("flat-nodelegation", flat(PASEOptions{NoDelegation: true}), "the flat climb without delegation"),
		arbstats("flat-localonly", flat(PASEOptions{LocalOnly: true}), "access-link-only arbitration (Fig 12a)"),
		arbstats("hierarchy", ctrlCfg(PASEOptions{}), "the default arbitration hierarchy"),
		arbstats("deep-hierarchy", ctrlCfg(PASEOptions{HierFanOut: 2, HierTopShards: 1}), "a five-level binary hierarchy"),
		arbstats("central", ctrlCfg(PASEOptions{Central: true}), "the centralized arm"),
		workcounts("fig9a-dctcp", fig9a(DCTCP), "none"),
		workcounts("fig9a-pase", fig9a(PASE), "item 6"),
		workcounts("fig9a-pfabric", fig9a(PFabric), "none"),
		workcounts("ctrlscale-16", ctrlCfg(PASEOptions{}), "item 6"),
		workcounts("pdq", PointConfig{Protocol: PDQ, Scenario: IntraRack, Load: 0.8, Seed: 7, NumFlows: 120, Check: true}, "item 6"),
		{name: "fig9a-100x2", out: tsvOut, file: "fig9a-100x2.tsv",
			input:    input{fig: "9a", opts: Opts{NumFlows: 100, Seed: 1, Seeds: 2, Loads: []float64{0.5}, Check: true}},
			twins:    []string{"shards=3", "empty-plan", "zero-plan"},
			protects: "the figure pipeline end to end (workload, three transports, seed averaging, TSV); sharding and empty or zero-probability fault plans change nothing",
			mover:    "item 6"},
	}
	for _, f := range Figures {
		mover := "item 6"
		if f.ID == "1" || f.ID == "4" { // neither runs PASE or PDQ
			mover = "none"
		}
		ps = append(ps, pin{name: "figure-" + f.ID, out: tsvOut, file: "figures/" + f.ID + ".tsv",
			input:    input{fig: f.ID, opts: Opts{NumFlows: 30, Seed: 1, Loads: []float64{0.5}}},
			protects: "figure " + f.ID + "'s grid, metric, notes and TSV layout", mover: mover})
	}
	// The 30-flow goldens leave these figures' x axes flat or unswept;
	// each -axis row runs its figure at a size where the axis moves
	// every series but the flat ones: a baseline the axis leaves alone,
	// or a curve whose claim is that it stays level.
	for _, a := range []struct {
		id   string
		opts Opts
		flat []string
	}{
		{"te", Opts{NumFlows: 200, Seed: 1}, []string{"PASE+TE"}},
		{"robust", Opts{NumFlows: 80, Seed: 1}, []string{"DCTCP (no faults)"}},
		{"scale", Opts{NumFlows: 1000, Seed: 1, Loads: []float64{0.5}}, nil},
		{"task", Opts{NumFlows: 60, Seed: 1}, nil},
		{"ctrlscale", Opts{NumFlows: 30, Seed: 1, Racks: 100, Ctrl: "central"}, nil},
		{"11a", Opts{NumFlows: 60, Seed: 1, Loads: []float64{0.3, 0.8}}, nil},
		{"11b", Opts{NumFlows: 60, Seed: 1, Loads: []float64{0.3, 0.8}}, nil},
		{"highspeed", Opts{NumFlows: 30, Seed: 1}, nil},
	} {
		ps = append(ps, pin{name: "figure-" + a.id + "-axis", out: tsvOut, file: "figures/" + a.id + "-axis.tsv",
			input: input{fig: a.id, opts: a.opts}, flat: a.flat,
			protects: "figure " + a.id + "'s x axis, at a size where every series but the flat ones moves", mover: "item 6"})
	}
	ps = append(ps,
		pin{name: "trace-perfetto", out: perfettoOut, file: "golden_trace.json",
			input:    goldenTrace(TraceConfig{Spans: true, QueueSample: 200 * sim.Microsecond}),
			protects: "the Perfetto export: flow spans, queue counter tracks, JSON layout", mover: "none"},
		pin{name: "trace-flow-events", out: eventsOut, file: "flow_events.tsv",
			input:    goldenTrace(TraceConfig{FlowLog: true, QueueSample: 200 * sim.Microsecond}),
			protects: "the flow-event TSV: event order and columns", mover: "none"},
		pin{name: "trace-queue-samples", out: samplesOut, file: "queue_samples.tsv",
			input:    goldenTrace(TraceConfig{FlowLog: true, QueueSample: 200 * sim.Microsecond}),
			protects: "the queue-sample TSV: sampling tick, port order and columns", mover: "none"},
		pin{name: "traced-perfetto", out: perfettoOut, input: point(traced), twins: tracedTwins,
			protects: "traced runs stream: one Perfetto export, stored or streamed; a Shards request runs serially and changes no byte", mover: "none"},
		pin{name: "traced-flow-events", out: eventsOut, input: point(traced), twins: append(slices.Clone(tracedTwins), "stream+spill"),
			protects: "flow events in canonical order, stored or streamed, and a spilled log equals the buffered one; a Shards request changes no byte", mover: "none"},
		pin{name: "traced-pase-chaos", out: perfettoOut, input: point(tracedChaosPoint()), twins: shards24,
			protects: "a faulted PASE run's control spans; PASE's serial fallback traces like serial", mover: "item 6"},
		pin{name: "traced-sampled", out: perfettoOut, input: point(sampled), twins: []string{"shards=3"},
			protects: "1-in-8 trace sampling keeps the same flows; a Shards request changes no byte", mover: "none"},
		pin{name: "traced-te", out: routedTraceOut, input: point(tracedTE), twins: []string{"stream"},
			protects: "the route and abort tracks: TE moves in the Perfetto routing process, aborted flows, and both in the trace digest", mover: "none"},
		pin{name: "traced-fig3", out: perfettoOut, file: "traced_fig3.json",
			input:    point(PointConfig{Protocol: PASE, Scenario: toy, Check: true, Trace: TraceConfig{Spans: true}}),
			protects: "Figure 3 as a trace: the toy's three PASE flows, their grants and priority-queue epochs, and every arbitration exchange", mover: "item 6"},
	)
	for _, p := range []Protocol{DCTCP, D2TCP, L2DCT, PFabric, ExpressPass} {
		for _, s := range []Scenario{LeftRight, LeafSpine} {
			row := pin{name: "sharded-" + string(p) + "-" + string(s), out: digestOut, input: point(shardPoint(p, s)),
				twins: shards, protects: "the sharded engine reproduces the serial " + string(p) + " run on " + string(s), mover: "none"}
			if p == DCTCP && s == LeafSpine {
				row.twins = append(slices.Clone(shards), "shards=4+gomaxprocs=1")
				row.protects += ", however its shard goroutines are scheduled"
			}
			ps = append(ps, row)
		}
	}
	return append(ps,
		pin{name: "sharded-faults", out: digestOut, input: point(faulted(shardPoint(DCTCP, LeftRight))), twins: shards24,
			protects: "link flaps, loss and corruption on per-link fault RNG streams; a Shards request runs serially and changes nothing", mover: "none"},
		pin{name: "te-reroute", out: digestOut, input: point(teReroute), twins: append([]string{"rerun"}, shards...),
			protects: "failure rerouting, TE moves and aborts through an uplink-failure wave repeat exactly; a Shards request runs serially and changes nothing", mover: "none"},
		pin{name: "te-idle", out: digestOut, twins: append([]string{"rerun"}, shards24...),
			input:    point(PointConfig{Protocol: DCTCP, Scenario: TEFailover, Load: 0.6, Seed: 1, NumFlows: 200, Check: true}),
			protects: "the idle route machinery perturbs nothing on te-failover", mover: "none"},
		pin{name: "expresspass-faults", out: digestOut, input: point(faulted(shardPoint(ExpressPass, LeftRight))), twins: append([]string{"rerun"}, shards24...),
			protects: "credits and requests lost to faults recover by re-request, repeatably; a Shards request runs serially and changes nothing", mover: "none"},
		pin{name: "chaos", out: digestOut, twins: []string{"rerun"},
			input:    point(PointConfig{Protocol: PASE, Scenario: LeftRight, Load: 0.6, Seed: 11, NumFlows: 120, Faults: chaosPlan()}),
			protects: "the full chaos plan (flaps, loss, lossy slow control, arbitrator crashes) replays exactly", mover: "item 6"},
		manifestPin("manifest-run", flapLossPlan(), "the run manifest's JSON: which Opts fields land in params, their keys and order, the plan's spec"),
		manifestPin("manifest-run-emptyplan", &faults.Plan{Seed: 9}, "a plan that injects nothing is left out of the manifest, as a nil one is"),
	)
}

// manifestPin pins the manifest of a figure run under plan. The Opts
// also set fields the manifest does not record (Check, Progress,
// Trace, Ctrl, Racks), which must stay out of it.
func manifestPin(name string, plan *faults.Plan, what string) pin {
	o := Opts{NumFlows: 120, Seed: 4, Seeds: 3, Loads: []float64{0.5, 0.8}, Parallelism: 2,
		Check: true, Progress: func(int, int) {}, Faults: plan, Stream: true, Shards: 2,
		Trace: TraceConfig{Spans: true, SampleN: 8}, Ctrl: "central", Racks: 100}
	return pin{name: name, out: manifestOut, file: name + ".json", input: input{opts: o}, protects: what, mover: "none"}
}

var (
	digestOut = out{"digest", func(t *testing.T, in input) []byte {
		return binary.BigEndian.AppendUint64(nil, digestResult(runChecked(t, in.cfg)))
	}}
	tsvOut = out{"figure TSV", func(t *testing.T, in input) []byte {
		fig, ok := Lookup(in.fig)
		if !ok {
			t.Fatalf("figure %s not registered", in.fig)
		}
		res := fig.Run(in.opts)
		if res.Violations != 0 {
			t.Fatalf("invariant checker reported %d violations", res.Violations)
		}
		var buf bytes.Buffer
		if err := res.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}}
	arbstatsOut = out{"arbitration stats", func(t *testing.T, in input) []byte {
		cfg := in.cfg
		cfg.Obs = true
		ctr := runChecked(t, cfg).Obs.Counters
		var b bytes.Buffer
		for _, k := range []string{"setups", "refreshes", "releases", "messages", "bytes", "delegated", "pruned", "prune_saved_msgs", "sync_messages"} {
			fmt.Fprintf(&b, "arb/%s\t%d\n", k, ctr["arb/"+k])
		}
		for d := 0; d < arbitration.MaxCtrlLevels; d++ {
			if v, ok := ctr[fmt.Sprintf("arb/msgs/level%d", d)]; ok {
				fmt.Fprintf(&b, "arb/msgs/level%d\t%d\n", d, v)
			}
		}
		return b.Bytes()
	}}
	workcountsOut = out{"work counts", func(t *testing.T, in input) []byte {
		cfg := in.cfg
		cfg.Obs = true
		ctr := runChecked(t, cfg).Obs.Counters
		var b bytes.Buffer
		for _, k := range []string{"sim/events_fired", "sim/events_scheduled", "sim/timers_stopped", "sim/scheduled_overflow",
			"queue/pfabric/slots_scanned", "arb/entries_sorted"} {
			fmt.Fprintf(&b, "%s\t%d\n", k, ctr[k])
		}
		return b.Bytes()
	}}
	perfettoOut = out{"Perfetto JSON", func(t *testing.T, in input) []byte {
		b, _ := perfettoBytes(t, in.cfg)
		if !json.Valid(b) {
			t.Fatal("exported trace is not valid JSON")
		}
		return b
	}}
	routedTraceOut = out{"Perfetto JSON and trace digest", func(t *testing.T, in input) []byte {
		b, r := perfettoBytes(t, in.cfg)
		if !json.Valid(b) {
			t.Fatal("exported trace is not valid JSON")
		}
		if len(r.Trace.Route) == 0 {
			t.Fatal("routed run recorded no route events")
		}
		if !slices.ContainsFunc(r.Trace.Flows, func(ft *trace.FlowTrace) bool { return ft.Aborted }) {
			t.Fatal("routed run traced no aborted flow")
		}
		return fmt.Appendf(b, "digest %#x\n", r.Trace.Digest())
	}}
	eventsOut = out{"flow-event TSV", func(t *testing.T, in input) []byte {
		r := runChecked(t, in.cfg)
		if spill, ok := in.cfg.Trace.FlowLogWriter.(*bytes.Buffer); ok {
			if len(r.Trace.Events) != 0 {
				t.Fatalf("spilling run retained %d flow events", len(r.Trace.Events))
			}
			return spill.Bytes()
		}
		if len(r.Trace.Events) == 0 {
			t.Fatal("traced run recorded no flow events")
		}
		var buf bytes.Buffer
		if err := r.Trace.WriteFlowEvents(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}}
	manifestOut = out{"run manifest", func(t *testing.T, in input) []byte {
		res := &Result{ID: "9a", Title: "AFCT vs load", Points: 6, Retx: 11, Timeouts: 2}
		m := NewManifest("paper", res, in.opts, time.Now(), time.Second)
		m.GitRev, m.GoVersion, m.Started, m.WallClockMS, m.PeakRSSBytes, m.HeapSysBytes = "", "", "", 0, 0, 0
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}}
	samplesOut = out{"queue-sample TSV", func(t *testing.T, in input) []byte {
		r := runChecked(t, in.cfg)
		if len(r.Trace.Queue) == 0 {
			t.Fatal("traced run recorded no queue samples")
		}
		var buf bytes.Buffer
		if err := r.Trace.WriteQueueSamples(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}}
)

// applyTwin sets one twin kind on in. A gomaxprocs twin changes the
// whole process, so its row runs alone and t restores it at the end.
func applyTwin(t *testing.T, in *input, kind string) {
	key, val, _ := strings.Cut(kind, "=")
	n, _ := strconv.Atoi(val)
	switch key {
	case "rerun":
	case "shards":
		in.cfg.Shards, in.opts.Shards = n, n
	case "stream":
		in.cfg.Stream, in.opts.Stream = true, true
	case "gomaxprocs":
		prev := runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	case "empty-plan":
		in.cfg.Faults, in.opts.Faults = &faults.Plan{}, &faults.Plan{}
	case "zero-plan":
		in.cfg.Faults, in.opts.Faults = zeroPlan(), zeroPlan()
	case "spill":
		in.cfg.Trace.FlowLogWriter = new(bytes.Buffer)
	default:
		t.Fatalf("unknown twin kind %q", kind)
	}
}

// value is what the row stores for an output: the bytes themselves in a
// file, or a pins.tsv value — a digest as is, anything else as its FNV-64.
func (p pin) value(got []byte) []byte {
	if p.file != "" {
		return got
	}
	if p.out.name != digestOut.name {
		h := fnv.New64a()
		h.Write(got)
		got = h.Sum(nil)
	}
	return []byte(fmt.Sprintf("%#x", got))
}

// stored is the row's committed value, nil when there is none.
func (p pin) stored(keys map[string]string) []byte {
	if p.file == "" {
		if v, ok := keys[p.name]; ok {
			return []byte(v)
		}
		return nil
	}
	b, _ := os.ReadFile(filepath.Join("testdata", p.file))
	return b
}

func (p pin) compare(t *testing.T, got, want []byte) {
	t.Helper()
	switch {
	case want == nil:
		t.Fatal("no stored value; pin it with PASE_UPDATE=1 go test -run TestPins ./internal/experiments")
	case bytes.Equal(got, want):
	case p.file == "":
		t.Errorf("%s: got %s, want the stored %s", p.out.name, got, want)
	default:
		t.Errorf("%s diverged from testdata/%s (%d vs %d bytes); got:\n%.2000s", p.out.name, p.file, len(got), len(want), got)
	}
}

func TestPins(t *testing.T) {
	update := os.Getenv("PASE_UPDATE") != ""
	keys := readKeys(t)
	t.Run("registry", func(t *testing.T) { checkRegistry(t, keys) })
	t.Run("design-doc", func(t *testing.T) { syncDesignDoc(t, update) })
	var mu sync.Mutex
	var moved []string
	fresh := map[string]string{} // pins.tsv values base runs re-pinned
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			if !strings.Contains(strings.Join(p.twins, " "), "gomaxprocs") { // else it runs alone
				t.Parallel()
			}
			want := p.stored(keys)
			t.Run("base", func(t *testing.T) {
				got := p.value(p.out.run(t, p.input))
				if update && !bytes.Equal(got, want) {
					if p.file != "" {
						if err := os.WriteFile(filepath.Join("testdata", p.file), got, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					mu.Lock()
					moved = append(moved, p.name)
					fresh[p.name] = string(got)
					mu.Unlock()
					want = got
				}
				p.compare(t, got, want)
			})
			for _, tw := range p.twins {
				t.Run(tw, func(t *testing.T) {
					in := p.input
					for _, kind := range strings.Split(tw, "+") {
						applyTwin(t, &in, kind)
					}
					p.compare(t, p.value(p.out.run(t, in)), want)
				})
			}
		})
	}
	if !update {
		return
	}
	t.Cleanup(func() {
		var b bytes.Buffer
		b.WriteString("# pin\tvalue: a digest as is, any other output as its FNV-64 (PASE_UPDATE=1 go test -run TestPins ./internal/experiments rewrites)\n")
		for _, p := range pins {
			v, ok := fresh[p.name]
			if !ok {
				v, ok = keys[p.name]
			}
			if p.file == "" && ok {
				fmt.Fprintf(&b, "%s\t%s\n", p.name, v)
			}
		}
		if err := os.WriteFile(filepath.Join("testdata", "pins.tsv"), b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		sort.Strings(moved)
		t.Logf("PASE_UPDATE: %d moved rows", len(moved))
		if len(moved) > 0 {
			t.Errorf("PASE_UPDATE re-pinned %d rows: %s; review git diff, then run again without PASE_UPDATE",
				len(moved), strings.Join(moved, ", "))
		}
	})
}

// readKeys parses testdata/pins.tsv: "name<TAB>0x…" lines and # comments.
func readKeys(t *testing.T) map[string]string {
	b, err := os.ReadFile(filepath.Join("testdata", "pins.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for _, l := range strings.Split(string(b), "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		name, v, ok := strings.Cut(l, "\t")
		if _, dup := keys[name]; !ok || dup {
			t.Fatalf("testdata/pins.tsv: malformed or repeated line %q", l)
		}
		keys[name] = v
	}
	return keys
}

// checkRegistry fails on two rows with one name, on a pins.tsv key no
// file-less row names, on a file under testdata/ (outside fuzz/) that
// no row owns — a deleted row must take its value with it — and on an
// -axis golden with a series, flat ones aside, constant along x.
func checkRegistry(t *testing.T, keys map[string]string) {
	rows := map[string]pin{}
	owned := map[string]bool{"pins.tsv": true}
	for _, p := range pins {
		if _, dup := rows[p.name]; dup {
			t.Errorf("two rows are named %s", p.name)
		}
		rows[p.name] = p
		owned[p.file] = true
		if strings.HasSuffix(p.name, "-axis") {
			for _, s := range flatSeries(p.stored(keys)) {
				if !slices.Contains(p.flat, s) {
					t.Errorf("testdata/%s: series %q is constant along x", p.file, s)
				}
			}
		}
	}
	for k := range keys {
		if p, ok := rows[k]; !ok || p.file != "" {
			t.Errorf("testdata/pins.tsv: %s belongs to no file-less row", k)
		}
	}
	err := filepath.WalkDir("testdata", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if d != nil && d.Name() == "fuzz" {
				return filepath.SkipDir
			}
			return err
		}
		if rel, _ := filepath.Rel("testdata", path); !owned[filepath.ToSlash(rel)] {
			t.Errorf("%s belongs to no row", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// flatSeries names the series of a one-grid figure TSV whose value is
// the same at every x.
func flatSeries(tsv []byte) []string {
	var names []string
	var rows [][]string
	for _, l := range strings.Split(string(tsv), "\n") {
		f := strings.Split(l, "\t")
		switch {
		case names == nil && len(f) > 2 && strings.HasPrefix(l, "# "):
			names = f[1 : len(f)-1]
		case l != "" && !strings.HasPrefix(l, "#"):
			rows = append(rows, f[1:])
		}
	}
	var flat []string
	for i, name := range names {
		same := len(rows) > 0
		for _, r := range rows {
			same = same && len(r) == len(names) && r[i] == rows[0][i]
		}
		if same {
			flat = append(flat, name)
		}
	}
	return flat
}

const (
	docBegin = "<!-- pins:begin — generated from pins_test.go; PASE_UPDATE=1 go test -run TestPins ./internal/experiments rewrites -->"
	docEnd   = "<!-- pins:end -->"
)

// syncDesignDoc holds DESIGN.md's pin table to the registry.
func syncDesignDoc(t *testing.T, update bool) {
	var b strings.Builder
	b.WriteString("\n\n| pin | output | twins | protects | mover |\n|---|---|---|---|---|\n")
	for _, p := range pins {
		stored := "`testdata/" + p.file + "`"
		if p.file == "" {
			stored = "FNV-64 in `pins.tsv`"
			if p.out.name == digestOut.name {
				stored = "`pins.tsv`"
			}
		}
		fmt.Fprintf(&b, "| `%s` | %s, %s | %s | %s | %s |\n",
			p.name, p.out.name, stored, cmp.Or(strings.Join(p.twins, ", "), "—"), p.protects, p.mover)
	}
	b.WriteString("\n")
	syncDoc(t, "DESIGN.md", docBegin, docEnd, b.String(), update)
}

// syncDoc holds the block between begin and end in the repository's file
// to body, or rewrites that block alone under update.
func syncDoc(t *testing.T, file, begin, end, body string, update bool) {
	path := filepath.Join("..", "..", file)
	doc, err := os.ReadFile(path)
	head, rest, ok := strings.Cut(string(doc), begin)
	_, tail, ok2 := strings.Cut(rest, end)
	if err != nil || !ok || !ok2 {
		t.Fatalf("%s has no %q … %q block (%v)", path, begin, end, err)
	}
	want := head + begin + body + end + tail
	switch {
	case want == string(doc):
	case update:
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s's %s block", path, begin)
	default:
		t.Errorf("%s's %s block differs from its rendering; regenerate it with PASE_UPDATE=1 go test -run %s ./internal/experiments", path, begin, t.Name())
	}
}

// runChecked runs cfg and fails on an invariant violation or a run that
// completed nothing.
func runChecked(t *testing.T, cfg PointConfig) PointResult {
	t.Helper()
	r := RunPoint(cfg)
	if r.Violations != 0 {
		t.Fatalf("invariant checker reported %d violations:\n%v", r.Violations, r.CheckViolations)
	}
	if r.Summary.Completed == 0 {
		t.Fatal("no flows completed")
	}
	return r
}

// digestResult folds a point's per-flow outcomes and queue totals into
// one FNV-1a value. Records are sorted by flow ID first so the digest
// pins behavior, not collection order.
func digestResult(r PointResult) uint64 {
	recs := slices.Clone(r.Records)
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	h := fnv.New64a()
	put := func(vs ...uint64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	for _, rec := range recs {
		var done uint64
		if rec.Done {
			done = 1
		}
		put(rec.ID, rec.Task, uint64(rec.Size), uint64(rec.Start), uint64(rec.Finish),
			uint64(rec.Deadline), done, uint64(rec.Retx), uint64(rec.Timeouts))
	}
	q := r.Queues
	put(uint64(q.Enqueued), uint64(q.Dequeued), uint64(q.Dropped), uint64(q.Marked),
		uint64(q.EnqueuedData), uint64(q.DroppedData), uint64(q.DroppedBytes))
	return h.Sum64()
}
