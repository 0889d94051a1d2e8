package pase_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pase"
	"pase/internal/experiments"
	"pase/internal/faults"
	"pase/internal/metrics"
)

func TestSimulateValidation(t *testing.T) {
	if _, err := pase.Simulate(pase.SimConfig{Load: 0}); err == nil {
		t.Fatal("zero load must be rejected")
	}
	if _, err := pase.Simulate(pase.SimConfig{Load: 1.5}); err == nil {
		t.Fatal("load > 1 must be rejected")
	}
	if _, err := pase.Simulate(pase.SimConfig{Load: 0.5, Protocol: "SCTP"}); err == nil {
		t.Fatal("unknown protocol must be rejected")
	}
	if _, err := pase.Simulate(pase.SimConfig{Load: 0.5, Scenario: "moon-base"}); err == nil {
		t.Fatal("unknown scenario must be rejected")
	}
	// Inputs the runner would otherwise panic on, rejected at the
	// boundary instead.
	if _, err := pase.Simulate(pase.SimConfig{Load: 0.5, NumFlows: -3}); err == nil {
		t.Fatal("negative NumFlows must be rejected")
	}
	// 1 queue panicked in arbitration, a negative count in netem.Prio,
	// and 128 and up wrapped the int8 queue index silently.
	for _, q := range []int{1, -3, 128} {
		_, err := pase.Simulate(pase.SimConfig{Load: 0.5, NumFlows: 10, PASE: pase.PASEOptions{NumQueues: q}})
		if err == nil || !strings.Contains(err.Error(), "NumQueues") {
			t.Fatalf("NumQueues %d: got %v, want an error naming the field", q, err)
		}
	}
	for _, q := range []int{2, 127} {
		if _, err := pase.Simulate(pase.SimConfig{Load: 0.5, NumFlows: 10, PASE: pase.PASEOptions{NumQueues: q}}); err != nil {
			t.Fatalf("NumQueues %d is in range: %v", q, err)
		}
	}
	// A rack count past the ceiling is an error naming the field it
	// came in by, not a fabric that does not fit in memory.
	tooMany := experiments.CtrlScaleMaxRacks + 1
	_, errScenario := pase.Simulate(pase.SimConfig{Load: 0.5, NumFlows: 10, Scenario: pase.Scenario(fmt.Sprintf("ctrlscale-%d", tooMany))})
	_, errFigure := pase.RunFigure("ctrlscale", pase.FigureOpts{NumFlows: 10, Racks: tooMany})
	for _, c := range []struct {
		field string
		err   error
	}{{"Scenario", errScenario}, {"Racks", errFigure}} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.field+" asks for") {
			t.Fatalf("%d racks by %s: got %v, want an error naming the field", tooMany, c.field, c.err)
		}
	}
	if _, err := pase.Simulate(pase.SimConfig{Load: 0.5, NumFlows: 10, Scenario: "ctrlscale-16"}); err != nil {
		t.Fatalf("16 racks is in range: %v", err)
	}
	// RunFigure checks its Opts through the same function Simulate
	// uses; each of these used to panic in a worker, plot an
	// impossible point, or run silently with the input ignored.
	for _, c := range []struct {
		field string
		opts  pase.FigureOpts
	}{
		{"Loads", pase.FigureOpts{NumFlows: 10, Loads: []float64{0}}},
		{"Loads", pase.FigureOpts{NumFlows: 10, Loads: []float64{0.5, 1.5}}},
		{"NumFlows", pase.FigureOpts{NumFlows: -5, Loads: []float64{0.5}}},
		{"Seeds", pase.FigureOpts{NumFlows: 10, Seeds: -1, Loads: []float64{0.5}}},
		{"Ctrl", pase.FigureOpts{NumFlows: 10, Ctrl: "centrl", Loads: []float64{0.5}}},
		{"Racks", pase.FigureOpts{NumFlows: 10, Racks: -1, Loads: []float64{0.5}}},
	} {
		if _, err := pase.RunFigure("13b", c.opts); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Fatalf("RunFigure(%+v): got %v, want an error naming %s", c.opts, err, c.field)
		}
	}
	bad := &pase.FaultPlan{Loss: []faults.LossFault{{Link: -1, Rate: 1.5}}}
	if _, err := pase.Simulate(pase.SimConfig{Load: 0.5, NumFlows: 10, Faults: bad}); err == nil {
		t.Fatal("out-of-range fault plan must be rejected")
	}
	if _, err := pase.SimulateSeeds(pase.SimConfig{Load: 0.5, NumFlows: 10, Faults: bad}, 2, 1, nil); err == nil {
		t.Fatal("SimulateSeeds: out-of-range fault plan must be rejected")
	}
	if _, err := pase.RunFigure("13b", pase.FigureOpts{NumFlows: 10, Faults: bad}); err == nil {
		t.Fatal("RunFigure: out-of-range fault plan must be rejected")
	}
}

// TestSimulateRejectsOutOfRange holds the values Simulate used to
// reinterpret without a word: a fan-out of 1 switched the deep
// hierarchy off, and the negative ones ran as if unset.
func TestSimulateRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   pase.SimConfig
	}{
		{"PASE.HierFanOut", pase.SimConfig{PASE: pase.PASEOptions{HierFanOut: 1}}},
		{"PASE.HierFanOut", pase.SimConfig{PASE: pase.PASEOptions{HierFanOut: -3}}},
		{"PASE.HierTopShards", pase.SimConfig{PASE: pase.PASEOptions{HierTopShards: -3}}},
		{"Trace.SampleN", pase.SimConfig{Trace: pase.TraceConfig{SampleN: -3}}},
		{"Trace.QueueSample", pase.SimConfig{Trace: pase.TraceConfig{QueueSample: -pase.Duration(1)}}},
		{"AbortAfter", pase.SimConfig{AbortAfter: -pase.Duration(1)}},
		{"Reroute", pase.SimConfig{Reroute: true}},
		{"PASE.NoPruning", pase.SimConfig{PASE: pase.PASEOptions{Central: true, NoPruning: true}}},
		{"PASE.NoDelegation", pase.SimConfig{PASE: pase.PASEOptions{Central: true, NoDelegation: true}}},
		{"PASE.HierTopShards", pase.SimConfig{PASE: pase.PASEOptions{Central: true, HierTopShards: 1}}},
		{"PASE.LocalOnly runs no arbitration hierarchy, so it cannot take PASE.HierFanOut", pase.SimConfig{PASE: pase.PASEOptions{LocalOnly: true, HierFanOut: 2}}},
		{"PASE.HierTopShards is a PASE option; protocol \"DCTCP\"", pase.SimConfig{Protocol: pase.ProtocolDCTCP, PASE: pase.PASEOptions{HierTopShards: 1}}},
	} {
		c.cfg.Load, c.cfg.NumFlows, c.cfg.Scenario = 0.5, 10, "ctrlscale-16"
		if _, err := pase.Simulate(c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: got %v, want an error naming the field", c.field, err)
		}
	}
	for _, ok := range []pase.PASEOptions{{HierFanOut: 2}, {HierTopShards: 1}} {
		if _, err := pase.Simulate(pase.SimConfig{Load: 0.5, NumFlows: 10, Scenario: "ctrlscale-16", PASE: ok}); err != nil {
			t.Errorf("%+v is in range: %v", ok, err)
		}
	}
}

func TestSimulateDefaults(t *testing.T) {
	rep, err := pase.Simulate(pase.SimConfig{Load: 0.5, NumFlows: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 50 {
		t.Fatalf("completed = %d, want 50", rep.Completed)
	}
	if rep.AFCT <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("implausible report: %+v", rep)
	}
	if len(rep.CDF) == 0 {
		t.Fatal("CDF missing")
	}
}

// TestUntracedReportHasNoTrace: a run with no trace track on carries a
// nil Trace.
func TestUntracedReportHasNoTrace(t *testing.T) {
	rep, err := pase.Simulate(pase.SimConfig{Load: 0.5, NumFlows: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != nil {
		t.Fatalf("untraced run returned a trace: %+v", rep.Trace.Stats)
	}
}

// TestSimulateSeedsRejectsSharedTraceWriters: the seeds of a
// SimulateSeeds call run concurrently, so a config's trace writers
// would take every seed's records interleaved. Such a config is
// rejected, naming Trace, before anything runs; one seed traces as
// Simulate does.
func TestSimulateSeedsRejectsSharedTraceWriters(t *testing.T) {
	var events, spans bytes.Buffer
	for _, c := range []struct {
		tc pase.TraceConfig
		w  *bytes.Buffer
	}{{pase.TraceConfig{FlowLogWriter: &events}, &events}, {pase.TraceConfig{SpanWriter: &spans}, &spans}} {
		cfg := pase.SimConfig{Protocol: pase.ProtocolDCTCP, Load: 0.5, NumFlows: 20, Seed: 1, Trace: c.tc}
		_, err := pase.SimulateSeeds(cfg, 2, 2, nil)
		if err == nil || !strings.Contains(err.Error(), "Trace") {
			t.Errorf("%+v over 2 seeds: got %v, want an error naming Trace", c.tc, err)
		}
		if c.w.Len() != 0 {
			t.Errorf("%+v: the rejected call wrote %d bytes", c.tc, c.w.Len())
		}
		if _, err := pase.SimulateSeeds(cfg, 1, 1, nil); err != nil || c.w.Len() == 0 {
			t.Errorf("%+v over 1 seed: err %v, %d bytes written", c.tc, err, c.w.Len())
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: pase.ScenarioIntraRack,
		Load: 0.6, NumFlows: 80, Seed: 9}
	a, err := pase.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pase.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AFCT != b.AFCT || a.P99 != b.P99 || a.CtrlMessages != b.CtrlMessages {
		t.Fatalf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestEveryProtocolEveryScenarioSmoke(t *testing.T) {
	for _, p := range pase.Protocols() {
		for _, s := range pase.Scenarios() {
			rep, err := pase.Simulate(pase.SimConfig{
				Protocol: p, Scenario: s, Load: 0.4, NumFlows: 40, Seed: 3,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", p, s, err)
			}
			if rep.Completed < 35 {
				t.Errorf("%s/%s: only %d/40 flows completed", p, s, rep.Completed)
			}
		}
	}
}

func TestListFiguresAndRun(t *testing.T) {
	figs := pase.ListFigures()
	if len(figs) != 24 {
		t.Fatalf("got %d figures, want 24", len(figs))
	}
	if _, err := pase.RunFigure("bogus", pase.FigureOpts{}); err == nil {
		t.Fatal("unknown figure must error")
	}
	fig, err := pase.RunFigure("13b", pase.FigureOpts{NumFlows: 60, Loads: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("figure 13b has %d series, want 2", len(fig.Series))
	}
	text := fig.Render()
	if !strings.Contains(text, "PASE") || !strings.Contains(text, "DCTCP") {
		t.Fatalf("render missing series names:\n%s", text)
	}
}

// TestSimManifestGolden pins the manifest pasesim writes: the recorded
// SimConfig fields, the seed count and the report totals. Fields the
// manifest does not record (Check, Reroute, AbortAfter, PASE, Trace) are
// set too and must stay out. PASE_UPDATE=1 rewrites the file.
func TestSimManifestGolden(t *testing.T) {
	plan, err := pase.ParseFaults("loss:link=*,class=data,rate=0.01")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: pase.ScenarioLeftRight, Load: 0.7, NumFlows: 150, Seed: 3,
		Check: true, Faults: plan, Reroute: true, AbortAfter: pase.Duration(time.Millisecond),
		Stream: true, Shards: 2, Trace: pase.TraceConfig{SampleN: 4}, PASE: pase.PASEOptions{NoPruning: true}}
	reps := []*pase.Report{{Summary: metrics.Summary{Retransmits: 5, Timeouts: 1}}, {Summary: metrics.Summary{Retransmits: 7, Timeouts: 2}}}
	m := pase.NewSimManifest("pasesim", cfg, reps, 2, time.Now(), time.Second)
	m.GitRev, m.GoVersion, m.Started, m.WallClockMS, m.PeakRSSBytes, m.HeapSysBytes = "", "", "", 0, 0, 0
	var got bytes.Buffer
	if err := m.Write(&got); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/sim-manifest.json"
	if os.Getenv("PASE_UPDATE") != "" {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v; pin it with PASE_UPDATE=1", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("manifest differs from %s; got:\n%s", path, got.Bytes())
	}
}

// TestEveryOptionReachesARun holds each PASEOptions field, and Reroute,
// to being honoured or rejected out loud. On every protocol but PASE,
// Validate rejects a PASE field, naming it and the protocol; Reroute is
// rejected on a fabric without route tables instead. On PASE, setting
// the field alone moves the digest of a run of at most 300 flows, or,
// on a scenario the field cannot act on, Validate rejects it naming the
// field and the scenario. A field that acts only on a rare event runs
// where the event happens, and its row's name says which.
func TestEveryOptionReachesARun(t *testing.T) {
	rows := []struct {
		name, field string
		val         any
		scenario    pase.Scenario
		faults      string
		reject      string // PASE's rejection on this scenario; "" = the field moves the digest
	}{
		{"LocalOnly", "PASE.LocalOnly", true, pase.ScenarioLeftRight, "", ""},
		{"NoPruning", "PASE.NoPruning", true, pase.ScenarioLeftRight, "", ""},
		{"NoDelegation", "PASE.NoDelegation", true, pase.ScenarioLeftRight, "", ""},
		{"NumQueues", "PASE.NumQueues", 3, pase.ScenarioLeftRight, "", ""},
		{"DisableRefRate", "PASE.DisableRefRate", true, pase.ScenarioIntraRackLarge, "", ""},
		{"DisableProbing/data-loss", "PASE.DisableProbing", true, pase.ScenarioLeftRight, "loss:class=data,rate=0.02", ""},
		{"TaskAware/worker-agg", "PASE.TaskAware", true, pase.ScenarioWorkerAgg, "", ""},
		{"TaskAware/left-right", "PASE.TaskAware", true, pase.ScenarioLeftRight, "",
			`PASE.TaskAware orders tasks, and scenario "left-right" carries none`},
		{"Central", "PASE.Central", true, pase.ScenarioLeftRight, "", ""},
		{"HierFanOut/ctrlscale-16", "PASE.HierFanOut", 2, "ctrlscale-16", "", ""},
		{"HierTopShards/ctrlscale-16", "PASE.HierTopShards", 1, "ctrlscale-16", "", ""},
		{"HierTopShards/left-right", "PASE.HierTopShards", 2, pase.ScenarioLeftRight, "",
			`PASE.HierTopShards shards a deep hierarchy's root, and scenario "left-right" runs the flat climb unless PASE.HierFanOut is set`},
		{"Reroute/uplink-outage", "Reroute", true, pase.ScenarioTEFailover, "linkdown:link=80,at=3100us,for=250ms", ""},
	}
	covered := map[string]bool{}
	for _, r := range rows {
		covered[r.field] = true
	}
	opts := reflect.TypeOf(pase.PASEOptions{})
	for i := range opts.NumField() {
		if f := "PASE." + opts.Field(i).Name; !covered[f] {
			t.Errorf("%s has no row", f)
		}
	}
	digests := map[string]uint64{} // base runs, by row config
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			base := pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: r.scenario, Load: 0.6, NumFlows: 200, Seed: 1}
			if r.faults != "" {
				plan, err := pase.ParseFaults(r.faults)
				if err != nil {
					t.Fatal(err)
				}
				base.Faults = plan
			}
			cfg := base
			field := reflect.ValueOf(&cfg).Elem()
			for _, name := range strings.Split(r.field, ".") {
				field = field.FieldByName(name)
			}
			field.Set(reflect.ValueOf(r.val))
			for _, p := range pase.Protocols() {
				bad := cfg
				bad.Protocol = p
				want := fmt.Sprintf("%s is a PASE option; protocol %q cannot take it", r.field, p)
				if !strings.HasPrefix(r.field, "PASE.") {
					bad.Scenario, want = pase.ScenarioLeftRight, r.field+" needs a leaf-spine Scenario"
				} else if p == pase.ProtocolPASE {
					continue
				}
				if err := pase.Validate(bad); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s on %s/%s: got %v, want an error naming %q", r.field, p, bad.Scenario, err, want)
				}
			}
			if r.reject != "" {
				if err := pase.Validate(cfg); err == nil || !strings.Contains(err.Error(), r.reject) {
					t.Errorf("%s on PASE/%s: got %v, want an error naming %q", r.field, r.scenario, err, r.reject)
				}
				return
			}
			key := fmt.Sprint(r.scenario, r.faults)
			if _, ok := digests[key]; !ok {
				digests[key] = reportDigest(t, base)
			}
			if digests[key] == reportDigest(t, cfg) {
				t.Errorf("%s = %v moves no digest of PASE on %s", r.field, r.val, r.scenario)
			}
		})
	}
}

// reportDigest runs cfg and hashes what its flows and queues did: every
// flow record and the queue totals.
func reportDigest(t *testing.T, cfg pase.SimConfig) uint64 {
	t.Helper()
	rep, err := pase.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	fmt.Fprint(h, rep.Records, rep.Queues)
	return h.Sum64()
}
