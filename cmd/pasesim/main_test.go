package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pase"
)

// result is what one run of the command left behind.
type result struct {
	code           int
	stdout, stderr string
	meter          string // what the progress meter drew on os.Stderr
	cfg            pase.SimConfig
	seeds          int // the seed count SimulateSeeds got; 0 = Simulate ran
	parallel       int
	dir            string // the working directory the run wrote into
}

// file reads a file the run wrote into its working directory.
func (r result) file(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(r.dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// flagRow is one row of the flag table: args added to the base
// invocation, then either the rejection it must produce or the config
// it must build — the base config edited by cfg — and the outputs it
// must write.
type flagRow struct {
	flag   string
	args   []string
	reject string // stderr must name this, with exit 1
	cfg    func(c *pase.SimConfig)
	out    func(t *testing.T, r result)
}

// base is what every row runs with, and baseCfg the config a row
// built with small builds.
var (
	base    = []string{"-progress=false"}
	baseCfg = pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: pase.ScenarioIntraRack, Load: 0.7, NumFlows: 20, Seed: 1}
)

// opened stands in a wanted config for a trace writer the run opened.
var opened io.Writer = io.Discard

// small runs args at 20 flows.
func small(args ...string) []string { return append([]string{"-flows", "20"}, args...) }

func contains(s string) func(t *testing.T, r result) {
	return func(t *testing.T, r result) {
		if !strings.Contains(r.stdout, s) {
			t.Errorf("stdout lacks %q:\n%s", s, r.stdout)
		}
	}
}

// wrote checks the run left file name starting with head.
func wrote(name, head string) func(t *testing.T, r result) {
	return func(t *testing.T, r result) {
		if got := r.file(t, name); !strings.HasPrefix(got, head) {
			t.Errorf("%s starts %.60q, want %q", name, got, head)
		}
	}
}

var flagTable = []flagRow{
	{flag: "protocol", args: small("-protocol", "DCTCP"), cfg: func(c *pase.SimConfig) { c.Protocol = pase.ProtocolDCTCP }},
	{flag: "protocol", args: small("-protocol", "SCTP"), reject: "SCTP"},
	{flag: "scenario", args: small("-scenario", "left-right"), cfg: func(c *pase.SimConfig) { c.Scenario = pase.ScenarioLeftRight }},
	{flag: "scenario", args: small("-scenario", "toy"), reject: "unknown scenario"},
	{flag: "scenario", args: small("-scenario", "ctrlscale-16"), cfg: func(c *pase.SimConfig) { c.Scenario = "ctrlscale-16" }},
	{flag: "scenario", args: small("-scenario", "ctrlscale-20000"), reject: "Scenario asks for 20000 ctrlscale racks"},
	{flag: "load", args: small("-load", "0.5"), cfg: func(c *pase.SimConfig) { c.Load = 0.5 }},
	{flag: "load", args: small("-load", "1.5"), reject: "Load"},
	{flag: "load", args: small("-load", "2", "-trace", "t.json"), reject: "Load"},
	{flag: "flows", args: small("-flows", "15"), cfg: func(c *pase.SimConfig) { c.NumFlows = 15 }},
	{flag: "seed", args: small("-seed", "5"), cfg: func(c *pase.SimConfig) { c.Seed = 5 }},
	{flag: "seeds", args: small("-seeds", "2", "-parallel", "1"), out: func(t *testing.T, r result) {
		if r.seeds != 2 {
			t.Errorf("SimulateSeeds got %d seeds, want 2", r.seeds)
		}
		contains("\nmean ")(t, r)
	}},
	{flag: "seeds", args: small("-seeds", "-2"), reject: "-seeds"},
	{flag: "seeds", args: small("-seeds", "2", "-flowlog", "f.tsv"), reject: "-seeds"},
	{flag: "seeds", args: small("-seeds", "2", "-stream", "-flowlog", "f.tsv"), reject: "-seeds"},
	{flag: "seeds", args: small("-seeds", "2", "-trace", "t.json"), reject: "-seeds"},
	{flag: "seeds", args: small("-seeds", "2", "-cdf", "-cpuprofile", "p.out"), reject: "-seeds"},
	{flag: "parallel", args: small("-seeds", "2", "-parallel", "3"), out: func(t *testing.T, r result) {
		if r.parallel != 3 {
			t.Errorf("SimulateSeeds got parallelism %d, want 3", r.parallel)
		}
	}},
	{flag: "cdf", args: small("-cdf"), out: contains("FCT CDF:")},
	{flag: "cdf", args: small("-seeds", "2", "-cdf"), reject: "-cdf need a single run; drop -seeds"},
	{flag: "local-only", args: small("-local-only"), cfg: func(c *pase.SimConfig) { c.PASE.LocalOnly = true }},
	{flag: "local-only", args: small("-local-only", "-no-pruning"), reject: "PASE.LocalOnly runs no arbitration hierarchy, so it cannot take PASE.NoPruning"},
	{flag: "local-only", args: small("-local-only", "-no-delegation"), reject: "PASE.LocalOnly runs no arbitration hierarchy, so it cannot take PASE.NoDelegation"},
	{flag: "local-only", args: small("-scenario", "ctrlscale-16", "-local-only", "-hier-fanout", "2"), reject: "PASE.LocalOnly runs no arbitration hierarchy, so it cannot take PASE.HierFanOut"},
	{flag: "local-only", args: small("-protocol", "DCTCP", "-local-only", "-queues", "3"), reject: "PASE.LocalOnly is a PASE option; protocol \"DCTCP\" cannot take it"},
	{flag: "no-refrate", args: small("-protocol", "DCTCP", "-no-refrate"), reject: "PASE.DisableRefRate is a PASE option; protocol \"DCTCP\" cannot take it"},
	{flag: "central", args: small("-protocol", "DCTCP", "-central"), reject: "PASE.Central is a PASE option; protocol \"DCTCP\" cannot take it"},
	{flag: "no-pruning", args: small("-no-pruning"), cfg: func(c *pase.SimConfig) { c.PASE.NoPruning = true }},
	{flag: "no-delegation", args: small("-no-delegation"), cfg: func(c *pase.SimConfig) { c.PASE.NoDelegation = true }},
	{flag: "queues", args: small("-queues", "4"), cfg: func(c *pase.SimConfig) { c.PASE.NumQueues = 4 }},
	{flag: "no-refrate", args: small("-no-refrate"), cfg: func(c *pase.SimConfig) { c.PASE.DisableRefRate = true }},
	{flag: "no-probing", args: small("-no-probing"), cfg: func(c *pase.SimConfig) { c.PASE.DisableProbing = true }},
	{flag: "central", args: small("-central"), cfg: func(c *pase.SimConfig) { c.PASE.Central = true }},
	{flag: "central", args: small("-central", "-local-only"), reject: "PASE.Central runs no arbitration hierarchy, so it cannot take PASE.LocalOnly"},
	{flag: "central", args: small("-scenario", "ctrlscale-16", "-central", "-hier-fanout", "2"), reject: "PASE.Central runs no arbitration hierarchy, so it cannot take PASE.HierFanOut"},
	{flag: "hier-fanout", args: small("-scenario", "ctrlscale-16", "-hier-fanout", "2"),
		cfg: func(c *pase.SimConfig) { c.Scenario, c.PASE.HierFanOut = "ctrlscale-16", 2 }},
	{flag: "hier-fanout", args: small("-hier-fanout", "-3"), reject: "PASE.HierFanOut"},
	{flag: "hier-fanout", args: small("-scenario", "ctrlscale-16", "-hier-fanout", "1"), reject: "PASE.HierFanOut"},
	{flag: "hier-shards", args: small("-scenario", "ctrlscale-16", "-hier-shards", "3"),
		cfg: func(c *pase.SimConfig) { c.Scenario, c.PASE.HierTopShards = "ctrlscale-16", 3 }},
	{flag: "hier-shards", args: small("-hier-shards", "-3"), reject: "PASE.HierTopShards"},
	{flag: "hier-shards", args: small("-hier-shards", "3"), reject: `PASE.HierTopShards shards a deep hierarchy's root, and scenario "intra-rack" runs the flat climb`},
	{flag: "hier-shards", args: small("-scenario", "left-right", "-hier-shards", "3"), reject: `scenario "left-right" runs the flat climb unless PASE.HierFanOut is set`},
	{flag: "hier-shards", args: small("-scenario", "left-right", "-hier-fanout", "2", "-hier-shards", "3"),
		cfg: func(c *pase.SimConfig) {
			c.Scenario, c.PASE.HierFanOut, c.PASE.HierTopShards = pase.ScenarioLeftRight, 2, 3
		}},
	{flag: "flowlog", args: small("-flowlog", "f.tsv"), cfg: func(c *pase.SimConfig) { c.Trace.FlowLogWriter = opened },
		out: func(t *testing.T, r result) {
			contains("f.tsv (42 events)")(t, r)
			wrote("f.tsv", "# time_ns\tkind\tflow")(t, r)
		}},
	{flag: "flowlog", args: small("-protocol", "DCTCP", "-flowlog", "f.tsv", "-stream", "-shards", "2"),
		cfg: func(c *pase.SimConfig) {
			c.Protocol, c.Trace.FlowLogWriter, c.Stream, c.Shards = pase.ProtocolDCTCP, opened, true, 2
		},
		out: func(t *testing.T, r result) {
			contains(" events)")(t, r)
			wrote("f.tsv", "# time_ns\tkind\tflow")(t, r)
			if !strings.Contains(r.stderr, "ran on the serial engine (trace)") {
				t.Errorf("stderr %q does not name the trace fallback", r.stderr)
			}
		}},
	{flag: "queuetrace", args: small("-queuetrace", "q.tsv"),
		cfg: func(c *pase.SimConfig) { c.Trace.QueueSample = pase.Duration(100 * time.Microsecond) },
		out: wrote("q.tsv", "# time_ns\tport\tqlen")},
	{flag: "queueinterval", args: small("-queuetrace", "q.tsv", "-queueinterval", "50us"),
		cfg: func(c *pase.SimConfig) { c.Trace.QueueSample = pase.Duration(50 * time.Microsecond) },
		out: contains("every 50µs")},
	{flag: "queueinterval", args: small("-queuetrace", "q.tsv", "-queueinterval", "0"), reject: "-queueinterval"},
	{flag: "queueinterval", args: small("-queuetrace", "q.tsv", "-queueinterval", "-5us"), reject: "-queueinterval"},
	{flag: "queueinterval", args: small("-queueinterval", "50us"), reject: "-queueinterval"},
	{flag: "trace", args: small("-trace", "t.json"),
		cfg: func(c *pase.SimConfig) {
			c.Trace.SpanWriter, c.Trace.QueueSample = opened, pase.Duration(100*time.Microsecond)
		},
		out: func(t *testing.T, r result) {
			contains("t.json (20 flows, digest ")(t, r)
			wrote("t.json", "{")(t, r)
		}},
	{flag: "trace", args: small("-protocol", "DCTCP", "-trace", "t.json", "-shards", "2"),
		cfg: func(c *pase.SimConfig) {
			c.Protocol, c.Trace.SpanWriter, c.Shards = pase.ProtocolDCTCP, opened, 2
			c.Trace.QueueSample = pase.Duration(100 * time.Microsecond)
		},
		out: func(t *testing.T, r result) {
			wrote("t.json", "{")(t, r)
			if !strings.Contains(r.stderr, "ran on the serial engine (trace)") {
				t.Errorf("stderr %q does not name the trace fallback", r.stderr)
			}
		}},
	{flag: "trace-sample", args: small("-trace", "t.json", "-trace-sample", "4"),
		cfg: func(c *pase.SimConfig) {
			c.Trace = pase.TraceConfig{SpanWriter: opened, QueueSample: pase.Duration(100 * time.Microsecond), SampleN: 4}
		}},
	{flag: "trace-sample", args: small("-trace-sample", "4"), reject: "-trace-sample"},
	{flag: "trace-sample", args: small("-trace-sample", "-3"), reject: "Trace.SampleN"},
	{flag: "outcomes", args: small("-outcomes", "o.tsv"), out: wrote("o.tsv", "# id\tsize")},
	{flag: "outcomes", args: small("-outcomes", "o.tsv", "-stream"), reject: "-outcomes"},
	{flag: "faults", args: small("-faults", "loss:rate=0.01"), cfg: func(c *pase.SimConfig) {
		c.Faults, _ = pase.ParseFaults("loss:rate=0.01")
	}},
	{flag: "faults", args: small("-faults", "zzz"), reject: "zzz"},
	{flag: "reroute", args: small("-scenario", "te-failover", "-reroute"),
		cfg: func(c *pase.SimConfig) { c.Scenario, c.Reroute = "te-failover", true }},
	{flag: "reroute", args: small("-reroute"), reject: "Reroute needs a leaf-spine Scenario; \"intra-rack\""},
	{flag: "reroute", args: small("-scenario", "left-right", "-reroute"), reject: "Reroute needs a leaf-spine Scenario; \"left-right\""},
	{flag: "abort-after", args: small("-abort-after", "5ms"), cfg: func(c *pase.SimConfig) { c.AbortAfter = pase.Duration(5 * time.Millisecond) }},
	{flag: "abort-after", args: small("-abort-after", "-1ms"), reject: "AbortAfter"},
	{flag: "stream", args: small("-stream"), cfg: func(c *pase.SimConfig) { c.Stream = true }},
	{flag: "shards", args: small("-shards", "2"), cfg: func(c *pase.SimConfig) { c.Shards = 2 }},
	{flag: "obs", args: small("-obs"), cfg: func(c *pase.SimConfig) { c.Obs = true },
		out: wrote("pasesim.manifest.json", "{\n  \"tool\": \"pasesim\"")},
	{flag: "check", args: small("-check"), cfg: func(c *pase.SimConfig) { c.Check = true }, out: contains("invariants      clean")},
	{flag: "manifest", args: small("-manifest", "m.json"), cfg: func(c *pase.SimConfig) { c.Obs = true },
		out: wrote("m.json", "{\n  \"tool\": \"pasesim\"")},
	{flag: "progress", args: small("-seeds", "2", "-progress"), out: func(t *testing.T, r result) {
		if !strings.Contains(r.meter, "2/2 points") {
			t.Errorf("progress meter drew %q", r.meter)
		}
	}},
	{flag: "cpuprofile", args: small("-cpuprofile", "cpu.out"), out: func(t *testing.T, r result) { r.file(t, "cpu.out") }},
	{flag: "memprofile", args: small("-memprofile", "mem.out"), out: func(t *testing.T, r result) {
		if r.file(t, "mem.out") == "" {
			t.Error("mem.out is empty")
		}
	}},
}

// TestFlagTable runs every row and checks each registered flag has one.
func TestFlagTable(t *testing.T) {
	var fs *flag.FlagSet
	for _, row := range flagTable {
		t.Run(row.flag+"/"+strings.Join(row.args, " "), func(t *testing.T) {
			r := runIn(t, append(append([]string(nil), base...), row.args...), &fs)
			if row.reject != "" {
				if r.code != 1 || !strings.Contains(r.stderr, row.reject) {
					t.Fatalf("exit %d, stderr %q: want exit 1 naming %s", r.code, r.stderr, row.reject)
				}
				if left, _ := os.ReadDir(r.dir); len(left) > 0 {
					t.Errorf("rejected run left %s in its working directory", left[0].Name())
				}
				return
			}
			if r.code != 0 {
				t.Fatalf("exit %d, stderr %q", r.code, r.stderr)
			}
			want := baseCfg
			if row.cfg != nil {
				row.cfg(&want)
			}
			got := r.cfg
			for _, w := range []*io.Writer{&got.Trace.SpanWriter, &got.Trace.FlowLogWriter} {
				if *w != nil {
					*w = opened
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("config\n got %+v\nwant %+v", got, want)
			}
			if row.out != nil {
				row.out(t, r)
			}
		})
	}
	if fs == nil {
		t.Fatal("no run parsed its flags")
	}
	listed := map[string]bool{}
	for _, row := range flagTable {
		listed[row.flag] = true
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !listed[f.Name] {
			t.Errorf("flag -%s has no row in the flag table", f.Name)
		}
	})
}

// runIn runs the command with args in a fresh working directory, with
// the runners and os.Stderr swapped to record what the run did, and
// stores the parsed flag set in *fs.
func runIn(t *testing.T, args []string, fs **flag.FlagSet) result {
	r := result{dir: t.TempDir()}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	meter, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	realStderr := os.Stderr
	defer func() {
		parsed, simulate, simulateSeeds = func(*flag.FlagSet) {}, pase.Simulate, pase.SimulateSeeds
		os.Stderr = realStderr
		meter.Close()
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	parsed = func(f *flag.FlagSet) { *fs = f }
	simulate = func(cfg pase.SimConfig) (*pase.Report, error) {
		r.cfg = cfg
		return pase.Simulate(cfg)
	}
	simulateSeeds = func(cfg pase.SimConfig, n, parallel int, progress func(int, int)) ([]*pase.Report, error) {
		r.cfg, r.seeds, r.parallel = cfg, n, parallel
		return pase.SimulateSeeds(cfg, n, parallel, progress)
	}
	if err := os.Chdir(r.dir); err != nil {
		t.Fatal(err)
	}
	os.Stderr = meter
	var stdout, stderr bytes.Buffer
	r.code = run(args, &stdout, &stderr)
	r.stdout, r.stderr = stdout.String(), stderr.String()
	b, _ := os.ReadFile(meter.Name())
	r.meter = string(b)
	return r
}

// TestOutputGolden pins pasesim's bytes: the stdout of a checked
// single run with -cdf and -outcomes plus its outcomes TSV, and the
// stdout of a serial three-seed table. PASE_UPDATE=1 rewrites the
// files under testdata/.
func TestOutputGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		file string // an output the run writes, pinned too
	}{
		{"single", []string{"-scenario", "deadline", "-flows", "100", "-check", "-cdf", "-outcomes", "o.tsv"}, "o.tsv"},
		{"seeds", []string{"-protocol", "DCTCP", "-flows", "100", "-seeds", "3", "-parallel", "1"}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var fs *flag.FlagSet
			r := runIn(t, append(append([]string(nil), base...), c.args...), &fs)
			if r.code != 0 {
				t.Fatalf("exit %d, stderr %q", r.code, r.stderr)
			}
			golden(t, c.name+".stdout", r.stdout)
			if c.file != "" {
				golden(t, c.name+"."+c.file, r.file(t, c.file))
			}
		})
	}
}

// golden compares got with testdata/<name>.golden.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if os.Getenv("PASE_UPDATE") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v; pin it with PASE_UPDATE=1", err)
	}
	if got != string(want) {
		t.Errorf("%s differs; got:\n%s", path, got)
	}
}
