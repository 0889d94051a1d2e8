package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pase"
)

// result is what one run of the command left behind.
type result struct {
	code           int
	stdout, stderr string
	meter          string // what the progress meter drew on os.Stderr
	ids            []string
	opts           pase.FigureOpts // the options the last figure ran with
	dir            string          // the working directory the run wrote into
}

// has reports whether the run left file name in its working directory.
func (r result) has(name string) bool {
	_, err := os.Stat(filepath.Join(r.dir, name))
	return err == nil
}

// flagRow is one row of the flag table: args added to the base
// invocation, then either the rejection it must produce or the figures
// and options it must run — the base options edited by opts — and the
// outputs it must write.
type flagRow struct {
	flag   string
	args   []string
	reject string // stderr must name this, with exit 1
	ids    []string
	opts   func(o *pase.FigureOpts)
	out    func(t *testing.T, r result)
}

// base is what every row runs with, and baseOpts the options a row
// built with fig builds.
var (
	base     = []string{"-loads", "0.5", "-progress=false"}
	baseOpts = pase.FigureOpts{NumFlows: 20, Seed: 1, Seeds: 1, Loads: []float64{0.5}, Obs: true, Trace: pase.TraceConfig{SampleN: 1}}
	fig9a    = []string{"9a"}
	fig3     = []string{"3"}
)

// fig runs args on figure 9a at 20 flows.
func fig(args ...string) []string { return append([]string{"-fig", "9a", "-flows", "20"}, args...) }

// toy runs args on figure 3, whose toy runs its own three flows at any
// -flows.
func toy(args ...string) []string { return append([]string{"-fig", "3", "-flows", "20"}, args...) }

// wrote checks the run left each named file.
func wrote(names ...string) func(t *testing.T, r result) {
	return func(t *testing.T, r result) {
		for _, n := range names {
			if !r.has(n) {
				t.Errorf("no %s written", n)
			}
		}
	}
}

// printed checks the run's stdout holds want.
func printed(want string) func(t *testing.T, r result) {
	return func(t *testing.T, r result) {
		if !strings.Contains(r.stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, r.stdout)
		}
	}
}

func allIDs() []string {
	var ids []string
	for _, f := range pase.ListFigures() {
		ids = append(ids, f.ID)
	}
	return ids
}

var flagTable = []flagRow{
	{flag: "fig", args: []string{"-fig", "4", "-flows", "20"}, ids: []string{"4"}},
	{flag: "fig", args: []string{"-fig", "nope"}, reject: `"nope"`},
	{flag: "fig", args: []string{"-fig", "nope", "-out", "d"}, reject: `"nope"`},
	{flag: "fig", args: toy(), ids: fig3, out: printed("(3 flows/point, seed 1,")},
	{flag: "all", args: []string{"-all", "-flows", "20", "-racks", "16"}, ids: allIDs(), opts: func(o *pase.FigureOpts) { o.Racks = 16 }},
	{flag: "list", args: []string{"-list"}, out: func(t *testing.T, r result) {
		if len(r.ids) != 0 || !strings.Contains(r.stdout, "9a       AFCT vs load") {
			t.Errorf("ran %v, stdout:\n%s", r.ids, r.stdout)
		}
	}},
	{flag: "flows", args: fig("-flows", "25"), ids: fig9a, opts: func(o *pase.FigureOpts) { o.NumFlows = 25 }},
	{flag: "seed", args: fig("-seed", "5"), ids: fig9a, opts: func(o *pase.FigureOpts) { o.Seed = 5 }},
	{flag: "seeds", args: fig("-seeds", "2"), ids: fig9a, opts: func(o *pase.FigureOpts) { o.Seeds = 2 }},
	{flag: "seeds", args: fig("-seeds", "-2"), reject: "Seeds"},
	{flag: "loads", args: fig("-loads", "0.3, 0.6"), ids: fig9a, opts: func(o *pase.FigureOpts) { o.Loads = []float64{0.3, 0.6} }},
	{flag: "loads", args: fig("-loads", "0.3,x"), reject: `bad load "x"`},
	{flag: "loads", args: fig("-loads", "1.5"), reject: "Loads"},
	{flag: "loads", args: fig("-loads", "1.5", "-out", "d"), reject: "Loads"},
	{flag: "out", args: fig("-out", "o"), ids: fig9a, out: wrote("o/fig9a.tsv", "o/fig9a.manifest.json")},
	{flag: "out", args: fig("-loads", "0.5,abc", "-out", "d"), reject: `bad load "abc"`},
	{flag: "parallel", args: fig("-parallel", "3"), ids: fig9a, opts: func(o *pase.FigureOpts) { o.Parallelism = 3 }},
	{flag: "obs", args: fig(), ids: fig9a, out: wrote("fig9a.manifest.json")},
	{flag: "obs", args: toy(), ids: fig3, out: func(t *testing.T, r result) {
		b, err := os.ReadFile(filepath.Join(r.dir, "fig3.manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if m := string(b); !strings.Contains(m, `"points": 2,`) || !strings.Contains(m, `"snapshot": {`) {
			t.Errorf("manifest records no points or no snapshot:\n%.600s", m)
		}
	}},
	{flag: "obs", args: fig("-obs=false"), ids: fig9a, opts: func(o *pase.FigureOpts) { o.Obs = false }, out: func(t *testing.T, r result) {
		if r.has("fig9a.manifest.json") {
			t.Error("-obs=false wrote a manifest")
		}
	}},
	{flag: "check", args: fig("-check"), ids: fig9a, opts: func(o *pase.FigureOpts) { o.Check = true }, out: func(t *testing.T, r result) {
		if !strings.Contains(r.stderr, "invariant checker clean") {
			t.Errorf("stderr %q", r.stderr)
		}
	}},
	{flag: "check", args: toy("-check"), ids: fig3, opts: func(o *pase.FigureOpts) { o.Check = true }, out: func(t *testing.T, r result) {
		if !strings.Contains(r.stderr, "invariant checker clean (2 points)") {
			t.Errorf("stderr %q", r.stderr)
		}
	}},
	{flag: "faults", args: fig("-faults", "ctrl:drop=0.2"), ids: fig9a, opts: func(o *pase.FigureOpts) {
		o.Faults, _ = pase.ParseFaults("ctrl:drop=0.2")
	}},
	{flag: "faults", args: fig("-faults", "zzz"), reject: "zzz"},
	{flag: "faults", args: toy("-faults", "ctrl:drop=0.5"), ids: fig3, opts: func(o *pase.FigureOpts) {
		o.Faults, _ = pase.ParseFaults("ctrl:drop=0.5")
	}, out: func(t *testing.T, r result) {
		clean, err := pase.RunFigure("3", baseOpts)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(r.stdout, clean.Render()) {
			t.Errorf("-faults left figure 3 fault-free:\n%s", r.stdout)
		}
	}},
	{flag: "stream", args: fig("-stream"), ids: fig9a, opts: func(o *pase.FigureOpts) { o.Stream = true }},
	{flag: "stream", args: toy("-stream"), reject: "Stream"},
	{flag: "stream", args: toy("-stream", "-out", "d"), reject: "Stream"},
	{flag: "stream", args: []string{"-fig", "task", "-stream", "-out", "d"}, reject: "Stream"},
	{flag: "shards", args: fig("-shards", "2"), ids: fig9a, opts: func(o *pase.FigureOpts) { o.Shards = 2 }},
	{flag: "trace", args: fig("-trace"), ids: fig9a, opts: func(o *pase.FigureOpts) { o.Trace.Spans = true }},
	{flag: "trace-sample", args: fig("-trace", "-trace-sample", "4"), ids: fig9a,
		opts: func(o *pase.FigureOpts) { o.Trace = pase.TraceConfig{Spans: true, SampleN: 4} }},
	{flag: "trace-sample", args: fig("-trace-sample", "-3"), reject: "Trace.SampleN"},
	{flag: "trace-sample", args: []string{"-fig", "3", "-flows", "20", "-trace-sample", "-3"}, reject: "Trace.SampleN"},
	{flag: "scale", args: []string{"-scale", "20"}, ids: []string{"scale"}, opts: func(o *pase.FigureOpts) { o.Stream = true },
		out: printed("(10-20 flows/point, seed 1,")},
	{flag: "scale", args: []string{"-scale", "-1"}, reject: "-scale"},
	{flag: "scale", args: []string{"-fig", "3", "-scale", "20"}, reject: "-scale picks the figure and its flow count; drop -fig"},
	{flag: "scale", args: []string{"-all", "-scale", "20"}, reject: "-scale picks the figure and its flow count; drop -all"},
	{flag: "scale", args: []string{"-scale", "20", "-flows", "15"}, reject: "-scale picks the figure and its flow count; drop -flows"},
	{flag: "scale", args: []string{"-fig", "3", "-flows", "20", "-scale", "-1"}, reject: "-scale"},
	{flag: "scale", args: []string{"-fig", "3", "-flows", "20", "-scale", "20"}, reject: "-scale picks the figure and its flow count; drop -fig"},
	{flag: "scale", args: []string{"-all", "-flows", "20", "-scale", "20"}, reject: "-scale picks the figure and its flow count; drop -all"},
	{flag: "scale", args: []string{"-flows", "20", "-scale", "20", "-flows", "30"}, reject: "-scale picks the figure and its flow count; drop -flows"},
	{flag: "ctrl", args: fig("-ctrl", "central"), ids: fig9a, opts: func(o *pase.FigureOpts) { o.Ctrl = "central" }},
	{flag: "ctrl", args: fig("-ctrl", "ring"), reject: "Ctrl"},
	{flag: "racks", args: []string{"-fig", "ctrlscale", "-flows", "20", "-racks", "16"}, ids: []string{"ctrlscale"}, opts: func(o *pase.FigureOpts) { o.Racks = 16 }},
	{flag: "racks", args: fig("-racks", "-1"), reject: "Racks"},
	{flag: "progress", args: fig("-progress"), ids: fig9a, out: func(t *testing.T, r result) {
		if !strings.Contains(r.meter, "fig 9a: ") {
			t.Errorf("progress meter drew %q", r.meter)
		}
	}},
	{flag: "cpuprofile", args: fig("-cpuprofile", "cpu.out"), ids: fig9a, out: wrote("cpu.out")},
	{flag: "cpuprofile", args: []string{"-fig", "nope", "-cpuprofile", "c.out"}, reject: `"nope"`},
	{flag: "memprofile", args: fig("-memprofile", "mem.out"), ids: fig9a, out: wrote("mem.out")},
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
			if !reflect.DeepEqual(r.ids, row.ids) {
				t.Errorf("ran figures %v, want %v", r.ids, row.ids)
			}
			if len(r.ids) > 0 {
				want := baseOpts
				if row.opts != nil {
					row.opts(&want)
				}
				got := r.opts
				got.Progress = nil
				if !reflect.DeepEqual(got, want) {
					t.Errorf("options\n got %+v\nwant %+v", got, want)
				}
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

// TestNoFigure: without -fig, -all or -list the command exits 2.
func TestNoFigure(t *testing.T) {
	var fs *flag.FlagSet
	if r := runIn(t, base, &fs); r.code != 2 || !strings.Contains(r.stderr, "need -fig") {
		t.Errorf("exit %d, stderr %q", r.code, r.stderr)
	}
}

// runIn runs the command with args in a fresh working directory, with
// the figure runner and os.Stderr swapped to record what the run did,
// and stores the parsed flag set in *fs.
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
		parsed, runFigure = func(*flag.FlagSet) {}, pase.RunFigure
		os.Stderr = realStderr
		meter.Close()
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	parsed = func(f *flag.FlagSet) { *fs = f }
	runFigure = func(id string, o pase.FigureOpts) (*pase.FigureData, error) {
		r.ids, r.opts = append(r.ids, id), o
		return pase.RunFigure(id, o)
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
