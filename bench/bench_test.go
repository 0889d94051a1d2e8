package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"sync"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary: the
// harness re-executes os.Executable() with a job in the environment.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		if err := childMain(spec, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []benchmarkWorkload `json:"workloads"`
	EndToEnd   []benchmarkBounded  `json:"end_to_end"`
	PerLayer   []benchmarkMetric   `json:"per_layer"`
}

type benchmarkWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkBounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// writeBenchmarkFile regenerates BENCHMARK.json from the harness's
// tables (PASE_UPDATE=1 go test ./bench -run BenchmarkFile), keeping the
// file's command, paths and run_seconds.
func writeBenchmarkFile(t *testing.T) {
	t.Helper()
	bf := readBenchmarkFile(t)
	bf.Workloads, bf.EndToEnd, bf.PerLayer = nil, nil, nil
	for _, w := range workloads {
		bf.Workloads = append(bf.Workloads, benchmarkWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bf.EndToEnd = append(bf.EndToEnd, benchmarkBounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		bf.PerLayer = append(bf.PerLayer, benchmarkMetric{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// tinySet runs the harness at -scale 0.01 -samples 2.
func tinySet(ws []workload, trace bool) (*resultSet, error) {
	return runSet(options{Seed: 1, Scale: 0.01, Samples: 2, Seconds: 10, Workloads: ws, Trace: trace})
}

// fullTiny is the whole set, traced, run once for all tests.
var fullTiny = sync.OnceValues(func() (*resultSet, error) { return tinySet(workloads, true) })

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the harness's
// own tables: same workloads, metrics, units, directions and bounds.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	if os.Getenv("PASE_UPDATE") != "" {
		writeBenchmarkFile(t)
	}
	bf := readBenchmarkFile(t)
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := bf.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, harness %+v", i, got, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := bf.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, harness %+v", i, got, d)
		}
	}
}

// TestHarnessEmitsEveryMetric runs the whole set tiny and checks that
// every named metric comes out finite with its unit, nothing unnamed
// does, and the correctness gate passes.
func TestHarnessEmitsEveryMetric(t *testing.T) {
	rs, err := fullTiny()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Workloads) != len(workloads) {
		t.Fatalf("got %d workloads, want %d", len(rs.Workloads), len(workloads))
	}
	for _, wr := range rs.Workloads {
		if !wr.Correct || wr.OpsFailed != 0 || wr.OpsAttempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", wr.Name, wr.Correct, wr.OpsAttempted, wr.OpsFailed, wr.Failures)
		}
		for _, trace := range []bool{false, true} {
			line, err := driverLine(rs, wr, trace)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Metrics map[string]value `json:"metrics"`
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatalf("%s: %v", wr.Name, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wr.Name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := out.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", wr.Name, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", wr.Name, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", wr.Name, d.Name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", wr.Name, d.Name, v.Value)
				}
			}
		}
		var shares float64
		for _, l := range layers {
			shares += wr.PerLayer[shareMetric(l)].Value
		}
		if math.Abs(shares-1) > 1e-9 {
			t.Errorf("%s: CPU shares sum to %v", wr.Name, shares)
		}
	}
	if got := rs.Workloads[4].Checked.Counters["shard/shards"]; got != 2 {
		t.Errorf("%s ran on %d shards, want 2", rs.Workloads[4].Name, got)
	}
}

// TestRepeatable: two tiny runs of one seed agree on the digest and on
// both allocation metrics.
func TestRepeatable(t *testing.T) {
	a, err := fullTiny()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinySet(workloads[:1], false)
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.Workloads[0], b.Workloads[0]
	for i := range wb.Timed {
		if wa.Timed[i].Digest != wb.Timed[i].Digest {
			t.Errorf("sample %d: digest %s then %s", i, wa.Timed[i].Digest, wb.Timed[i].Digest)
		}
	}
	for _, name := range []string{"alloc_bytes_per_flow", "allocs_per_flow"} {
		x, y := wa.EndToEnd[name].Median, wb.EndToEnd[name].Median
		if math.Abs(x-y) > 0.01*x {
			t.Errorf("%s: %v then %v", name, x, y)
		}
	}
}

// TestProfileAttribution profiles a loop that lives in the sim layer
// and checks the reader's shares.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	batch, _ := scheduleFire(512)()
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		batch(10_000)
	}
	pprof.StopCPUProfile()
	shares, stacks, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for l, s := range shares {
		sum += s
		known := false
		for _, k := range layers {
			known = known || k == l
		}
		if !known {
			t.Errorf("unknown layer %q", l)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["sim"] < 0.5 {
		t.Errorf("engine loop charged %.2f to sim over %d stacks: %v", shares["sim"], stacks, shares)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		want   string
		frames []string
	}{
		{"sim", []string{"pase/internal/sim.eventHeap.siftDown", "pase/internal/sim.(*Engine).Step"}},
		{"netem", []string{"pase/internal/netem.(*Port).pump.func1", "pase/internal/sim.(*Engine).Step"}},
		{"netem", []string{"pase/internal/pkt.(*Packet).IsControl"}},
		{"transport", []string{"pase/internal/transport/dctcp.(*control).OnAck"}},
		{"arbitration", []string{"pase/internal/core/arbitration.(*Arbitrator).Update"}},
		{"endhost", []string{"pase/internal/core/endhost.(*flowState).adjust"}},
		{"experiments", []string{"pase.Simulate", "main.runSimulate"}},
		{"experiments", []string{"pase/internal/check.(*Checker).QueueCap"}},
		{"runtime.alloc", []string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "pase/internal/transport.(*Sender).transmit"}},
		{"runtime.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime.gc", []string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "pase/internal/netem.(*fifo).grow"}},
		{"transport", []string{"runtime.mapaccess2_fast64", "pase/internal/transport.(*Stack).receive"}},
		{"sim", []string{"runtime.Gosched", "pase/internal/sim.(*ShardedEngine).worker"}},
		{"runtime.other", []string{"runtime.futex", "runtime.mcall"}},
		{"runtime.other", nil},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, "x")
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("got %+v", s)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if s := summarize([]float64{1, 2}, "x"); s.Q1 != 0.75 || s.Q3 != 2.25 {
		t.Errorf("got %+v", s)
	}
	if s := summarize([]float64{3}, "x"); s.Q1 != 3 || s.Median != 3 || s.Q3 != 3 {
		t.Errorf("got %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "flows_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "peak_rss_mb", Better: "lower", Bound: 0.10}
	tight := func(m float64) stat { return stat{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 5} }
	wide := func(m float64) stat { return stat{Median: m, Q1: m * 0.9, Q3: m * 1.1, N: 5} }
	for _, tc := range []struct {
		name           string
		def            metricDef
		a, b           stat
		driftA, driftB float64
		want           string
	}{
		{"higher is better, up 20%", higher, tight(100), tight(120), 0, 0, "better"},
		{"higher is better, down 20%", higher, tight(100), tight(80), 0, 0, "worse"},
		{"within the bound", higher, tight(100), tight(95), 0, 0, "unchanged"},
		{"exactly the bound is unchanged", higher, tight(100), tight(90), 0, 0, "unchanged"},
		{"lower is better, up 20%", lower, tight(100), tight(120), 0, 0, "worse"},
		{"lower is better, down 20%", lower, tight(100), tight(80), 0, 0, "better"},
		{"base quartiles wider than the bound", higher, wide(100), tight(80), 0, 0, "unresolved"},
		{"new quartiles wider than the bound", higher, tight(100), wide(80), 0, 0, "unresolved"},
		{"base host drifted", higher, tight(100), tight(80), 10.5, 0, "unresolved"},
		{"new host drifted", lower, tight(100), tight(120), 0, 11, "unresolved"},
		{"drift at the threshold still counts", higher, tight(100), tight(80), 10, 10, "worse"},
		{"no base to compare with", higher, stat{}, tight(80), 0, 0, "unresolved"},
	} {
		if got := verdict(tc.def, tc.a, tc.b, tc.driftA, tc.driftB); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}
