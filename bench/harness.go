package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"pase"
)

// options select what one set of runs measures.
type options struct {
	Seed  uint64
	Scale float64
	// Samples, when positive, fixes the timed samples per workload;
	// otherwise each workload's own count is scaled by Seconds/10.
	Samples   int
	Seconds   float64
	Workloads []workload
	// Trace adds the traced child per workload and the drivers child,
	// which yield the per-layer metrics.
	Trace bool
	// Log receives one progress line per child; nil is quiet.
	Log io.Writer
}

// resultSet is one full set of runs: the -out file.
type resultSet struct {
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Started    string  `json:"started"`
	WallS      float64 `json:"wall_s"`

	// Host is the yardstick over every child of the set.
	Host map[string]value `json:"host"`
	// Drivers are the workload-independent layer drivers (trace only).
	Drivers   map[string]value  `json:"drivers,omitempty"`
	Workloads []*workloadResult `json:"workloads"`
	// Spans are the harness's own: one per child, one per driver batch.
	Spans []span `json:"spans"`
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Name      string `json:"name"`
	Flows     int    `json:"flows"`
	Samples   int    `json:"samples"`
	SetupReps int    `json:"setup_reps"`

	// OpsAttempted counts the flows of every timed sample; OpsFailed
	// those not completed — or all of them when the gate tripped.
	OpsAttempted int      `json:"ops_attempted"`
	OpsFailed    int      `json:"ops_failed"`
	Correct      bool     `json:"correct"`
	Failures     []string `json:"failures,omitempty"`

	EndToEnd map[string]stat  `json:"end_to_end"`
	PerLayer map[string]value `json:"per_layer,omitempty"`

	// Every child's raw result, so a later issue can size a gain from
	// recorded samples rather than medians alone.
	Timed   []childResult `json:"timed"`
	Setup   *childResult  `json:"setup,omitempty"`
	Checked *childResult  `json:"checked,omitempty"`
	Traced  *childResult  `json:"traced,omitempty"`
}

// setupBlocks is how many blocks the set-up child times (the reported
// set-up time is the median block divided by its call count), and
// driverBatches how many batches each layer driver runs.
const (
	setupBlocks   = 15
	driverBatches = 5
)

// yardstickIters is the host yardstick's loop length: about 45 ms on
// the reference host (2.24 ns per draw), run twice per child.
const yardstickIters = 20_000_000

// samplesFor is the timed sample count of w under o.
func (o options) samplesFor(w workload) int {
	if o.Samples > 0 {
		return o.Samples
	}
	n := int(math.Round(float64(w.Samples) * o.Seconds / 10))
	if n < 3 {
		n = 3
	}
	return n
}

// runSet executes one set: strictly one child at a time, timed samples
// interleaved round-robin across workloads so slow host drift hits all
// workloads alike.
func runSet(o options) (*resultSet, error) {
	start := time.Now()
	rs := &resultSet{
		GitRev:     pase.GitRev(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       o.Seed,
		Scale:      o.Scale,
		Started:    start.UTC().Format(time.RFC3339),
	}
	yard := int(float64(yardstickIters) * math.Min(1, o.Scale))
	blocks, batches := setupBlocks, driverBatches
	if o.Scale < 1 {
		blocks, batches = 3, 1 // the self-test only needs the figures to exist
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var readings []float64
	run := func(j job) (*childResult, error) {
		j.Yardstick = yard
		t0 := time.Now()
		res, err := spawn(exe, j)
		if err != nil {
			return nil, err
		}
		name := j.Role
		if j.Workload != "" {
			name += ":" + j.Workload
		}
		rs.Spans = append(rs.Spans, span{Name: name, Parent: "set",
			StartNs: t0.Sub(start).Nanoseconds(), DurNs: time.Since(t0).Nanoseconds()})
		readings = append(readings, res.YardBeforeNs, res.YardAfterNs)
		if o.Log != nil {
			fmt.Fprintf(o.Log, "  %-32s seed=%d %.3fs\n", name, j.Seed, time.Since(t0).Seconds())
		}
		return res, nil
	}

	for _, w := range o.Workloads {
		rs.Workloads = append(rs.Workloads, &workloadResult{
			Name: w.Name, Flows: w.scaled(o.Scale),
			Samples: o.samplesFor(w), SetupReps: max(1, int(float64(w.SetupReps)*math.Min(1, o.Scale))),
		})
	}
	for i, more := 0, true; more; i++ {
		more = false
		for _, wr := range rs.Workloads {
			if i >= wr.Samples {
				continue
			}
			more = true
			res, err := run(job{Role: roleTimed, Workload: wr.Name, Seed: sampleSeed(o.Seed, i), Flows: wr.Flows})
			if err != nil {
				return nil, err
			}
			wr.Timed = append(wr.Timed, *res)
		}
	}
	for _, wr := range rs.Workloads {
		roles := []struct {
			role string
			dst  **childResult
		}{{roleSetup, &wr.Setup}, {roleChecked, &wr.Checked}, {roleTraced, &wr.Traced}}
		for _, r := range roles {
			if r.role == roleTraced && !o.Trace {
				continue
			}
			res, err := run(job{Role: r.role, Workload: wr.Name, Seed: o.Seed, Flows: wr.Flows, Reps: wr.SetupReps, Blocks: blocks})
			if err != nil {
				return nil, err
			}
			*r.dst = res
		}
	}
	var drivers *childResult
	if o.Trace {
		if drivers, err = run(job{Role: roleDrivers, Scale: o.Scale, Blocks: batches}); err != nil {
			return nil, err
		}
		rs.Spans = append(rs.Spans, drivers.Spans...)
		rs.Drivers = make(map[string]value, len(driverDefs))
		for _, d := range driverMetrics() {
			rs.Drivers[d.Name] = value{drivers.Drivers[d.Name], d.Unit}
		}
	}

	rs.Host = hostStats(readings)
	for i, wr := range rs.Workloads {
		wr.gate(o.Workloads[i], o)
		wr.endToEnd()
		if o.Trace {
			wr.perLayer()
		}
	}
	rs.WallS = time.Since(start).Seconds()
	return rs, nil
}

// spawn re-executes exe with the job in its environment and decodes
// the result from its stdout. The child's stderr surfaces only when it
// fails.
func spawn(exe string, j job) (*childResult, error) {
	spec, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s %s: %w\n%s", j.Role, j.Workload, err, stderr.Bytes())
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child %s %s: decode result: %w", j.Role, j.Workload, err)
	}
	return &res, nil
}

// hostStats condenses the yardstick readings of a set, in run order.
// Drift compares the second half of the set to the first, so it shows
// the host changing speed under the set rather than single noisy loops.
func hostStats(readings []float64) map[string]value {
	drift := 0.0
	if med := medianOf(readings); med > 0 && len(readings) >= 4 {
		half := len(readings) / 2
		drift = 100 * math.Abs(medianOf(readings[half:])-medianOf(readings[:half])) / med
	}
	return map[string]value{
		"host.yardstick_ns":        {medianOf(readings), "ns"},
		"host.yardstick_drift_pct": {drift, "%"},
		"host.gomaxprocs":          {float64(runtime.GOMAXPROCS(0)), "count"},
	}
}

// gate is the correctness check of the one command: every timed flow
// completes; the checked child completes every flow with no invariant
// violation; sample 0, the traced child and the checked child — one
// seed, with Obs and Check off and on — agree on the report digest,
// and on the pinned one for -seed 1 at -scale 1; and a sharded workload
// did not silently fall back to the serial engine.
func (wr *workloadResult) gate(w workload, o options) {
	fail := func(format string, a ...any) {
		wr.Failures = append(wr.Failures, fmt.Sprintf(format, a...))
	}
	for i, t := range wr.Timed {
		wr.OpsAttempted += t.Flows
		wr.OpsFailed += t.Flows - t.Completed
		if t.Completed != t.Flows {
			fail("timed sample %d completed %d of %d flows", i, t.Completed, t.Flows)
		}
	}
	c := wr.Checked
	if c.Completed != c.Flows {
		fail("checked run completed %d of %d flows", c.Completed, c.Flows)
	}
	if c.Violations != 0 {
		fail("checked run saw %d invariant violations", c.Violations)
	}
	if d := wr.Timed[0].Digest; c.Digest != d {
		fail("checked digest %s differs from untraced %s", c.Digest, d)
	}
	if t := wr.Traced; t != nil && t.Digest != c.Digest {
		fail("traced digest %s differs from checked %s", t.Digest, c.Digest)
	}
	if pin := fmt.Sprintf("%016x", w.Digest1); o.Seed == 1 && o.Scale == 1 && c.Digest != pin {
		fail("seed-1 digest %s differs from the pinned %s", c.Digest, pin)
	}
	if w.Cfg.Shards > 1 && c.Counters["shard/fallback_serial"] > 0 {
		fail("sharded run fell back to the serial engine")
	}
	wr.Correct = len(wr.Failures) == 0
	if !wr.Correct {
		wr.OpsFailed = wr.OpsAttempted
	}
}

func (wr *workloadResult) endToEnd() {
	sample := func(f func(t childResult) float64) []float64 {
		out := make([]float64, len(wr.Timed))
		for i, t := range wr.Timed {
			out[i] = f(t)
		}
		return out
	}
	perCall := make([]float64, len(wr.Setup.SetupBlockS))
	for i, b := range wr.Setup.SetupBlockS {
		perCall[i] = b / float64(wr.SetupReps)
	}
	samples := map[string][]float64{
		"flows_per_s":          sample(func(t childResult) float64 { return float64(t.Completed) / t.WallS }),
		"alloc_bytes_per_flow": sample(func(t childResult) float64 { return float64(t.AllocBytes) / float64(t.Flows) }),
		"allocs_per_flow":      sample(func(t childResult) float64 { return float64(t.Mallocs) / float64(t.Flows) }),
		"peak_rss_mb":          sample(func(t childResult) float64 { return float64(t.PeakRSSKB) / 1024 }),
		"setup_s":              perCall,
	}
	wr.EndToEnd = make(map[string]stat, len(endToEnd))
	for _, d := range endToEnd {
		wr.EndToEnd[d.Name] = summarize(samples[d.Name], d.Unit)
	}
}

// perLayer derives the workload's per-layer metrics: exact counts and
// CPU shares from the traced child, host time per event from the
// untraced samples.
func (wr *workloadResult) perLayer() {
	t, c := wr.Traced, wr.Checked
	flows := float64(t.Flows)
	ctr := func(name string) float64 { return float64(t.Counters[name]) }
	// net sums one per-link counter over every link class.
	net := func(suffix string) float64 {
		var sum float64
		for name, v := range t.Counters {
			if strings.HasPrefix(name, "net/") && strings.HasSuffix(name, "/"+suffix) {
				sum += float64(v)
			}
		}
		return sum
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	events := ctr("sim/events_fired")
	shards := math.Max(1, ctr("shard/shards"))
	perFlowNs := make([]float64, len(wr.Timed))
	gcs := make([]float64, len(wr.Timed))
	pauses := make([]float64, len(wr.Timed))
	for i, s := range wr.Timed {
		perFlowNs[i] = s.WallS * 1e9 / float64(s.Flows)
		gcs[i], pauses[i] = float64(s.GCCount), float64(s.GCPauseNs)/1e6
	}
	perFlow := summarize(perFlowNs, "ns")
	digestOK := 0.0
	if wr.Correct {
		digestOK = 1
	}

	m := map[string]float64{
		"sim.events":           events,
		"sim.events_per_flow":  events / flows,
		"sim.timer_stop_share": ratio(ctr("sim/timers_stopped"), ctr("sim/events_scheduled")),
		"sim.heap_depth_max":   float64(t.Gauges["sim/heap_depth"]),
		// The end-to-end figure per event: host time per flow is
		// flows_per_s's, events per flow the traced seed's.
		"sim.ns_per_event": 1e9 / wr.EndToEnd["flows_per_s"].Median / (events / flows),

		"netem.pkts_per_flow": ctr("net/host-tor/up/tx_pkts") / flows,
		"netem.drop_share":    ratio(net("drop"), net("enq")+net("drop")),
		"netem.mark_share":    ratio(net("mark"), net("enq")),

		"transport.retx_per_flow":     ctr("transport/retx") / flows,
		"transport.timeouts_per_flow": ctr("transport/timeouts") / flows,

		"arbitration.msgs_per_flow":      ctr("arb/messages") / flows,
		"arbitration.refreshes_per_flow": ctr("arb/refreshes") / flows,

		"shard.windows":             ctr("shard/windows"),
		"shard.handoffs_per_window": ratio(ctr("shard/handoffs"), ctr("shard/windows")),
		"shard.null_window_share":   ratio(ctr("shard/null_windows"), ctr("shard/windows")*shards),
		"shard.stall_share":         ratio(ctr("shard/stall_ns"), t.WallS*1e9*shards),
		"shard.fallback_serial":     ctr("shard/fallback_serial"),

		"runtime.gc_count":    medianOf(gcs),
		"runtime.gc_pause_ms": medianOf(pauses),

		"simstat.afct_us":   float64(t.AFCTNs) / 1e3,
		"simstat.p99_us":    float64(t.P99Ns) / 1e3,
		"simstat.loss_pct":  100 * t.LossRate,
		"simstat.digest_ok": digestOK,

		"obs.overhead_pct":    100 * (t.WallS*1e9/flows/perFlow.Median - 1),
		"obs.noise_floor_pct": 100 * perFlow.spread(),
		// Same seed and flows on both sides; both carry Obs, the traced
		// side the profiler too, so this understates by the profiler's
		// cost.
		"check.overhead_pct": 100 * (c.WallS/t.WallS - 1),
	}
	for _, l := range layers {
		m[shareMetric(l)] = t.CPUShares[l]
	}
	wr.PerLayer = make(map[string]value, len(m))
	for _, d := range perLayer {
		if v, ok := m[d.Name]; ok {
			wr.PerLayer[d.Name] = value{v, d.Unit}
		}
	}
}

// layerMetrics is the full per-layer metric set of one workload: its
// own metrics plus the set-wide drivers and host yardstick.
func (rs *resultSet) layerMetrics(wr *workloadResult) map[string]value {
	out := make(map[string]value, len(perLayer))
	for _, part := range []map[string]value{wr.PerLayer, rs.Drivers, rs.Host} {
		for k, v := range part {
			out[k] = v
		}
	}
	return out
}
