package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"pase"
	"pase/internal/sim"
)

// childEnv carries a job to a re-executed copy of this binary. main
// (and the test binary's TestMain) run the job and exit when it is set.
const childEnv = "PASE_BENCH_JOB"

// Child roles.
const (
	roleTimed   = "timed"   // one Simulate call, Obs/Check/trace off
	roleSetup   = "setup"   // blocks of NumFlows=1 calls
	roleTraced  = "traced"  // Obs on, wrapped in a CPU profile
	roleChecked = "checked" // Check and Obs on: the correctness gate
	roleDrivers = "drivers" // the layer drivers
)

// job is one child's work order.
type job struct {
	Role     string  `json:"role"`
	Workload string  `json:"workload,omitempty"`
	Seed     uint64  `json:"seed"`
	Flows    int     `json:"flows,omitempty"`
	Reps     int     `json:"reps,omitempty"`   // setup: calls per block
	Blocks   int     `json:"blocks,omitempty"` // setup: blocks timed; drivers: batches
	Scale    float64 `json:"scale,omitempty"`  // drivers: batch scale
	// Yardstick is the iteration count of the host yardstick loop run
	// before and after the work.
	Yardstick int `json:"yardstick"`
}

// childResult is what a child prints on stdout, as JSON.
type childResult struct {
	Job job `json:"job"`
	// YardBeforeNs / YardAfterNs are the host yardstick, ns per
	// sim.Rand.Uint64, on either side of the child's work.
	YardBeforeNs float64 `json:"yard_before_ns"`
	YardAfterNs  float64 `json:"yard_after_ns"`

	// Simulate roles.
	WallS      float64 `json:"wall_s,omitempty"`
	Flows      int     `json:"flows,omitempty"`
	Completed  int     `json:"completed,omitempty"`
	AllocBytes uint64  `json:"alloc_bytes,omitempty"`
	Mallocs    uint64  `json:"mallocs,omitempty"`
	GCCount    uint32  `json:"gc_count,omitempty"`
	GCPauseNs  uint64  `json:"gc_pause_ns,omitempty"`
	PeakRSSKB  int64   `json:"peak_rss_kb,omitempty"`
	Digest     string  `json:"digest,omitempty"`
	Violations int64   `json:"violations,omitempty"`
	AFCTNs     int64   `json:"afct_ns,omitempty"`
	P99Ns      int64   `json:"p99_ns,omitempty"`
	LossRate   float64 `json:"loss_rate,omitempty"`

	// Traced and checked children: the run's obs counters and gauges.
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	// Traced child: CPU share per layer and the profile's stack count.
	CPUShares    map[string]float64 `json:"cpu_shares,omitempty"`
	ProfileStack int                `json:"profile_stacks,omitempty"`

	// Setup child: seconds per block of Job.Reps calls.
	SetupBlockS []float64 `json:"setup_block_s,omitempty"`

	// Drivers child.
	Drivers map[string]float64 `json:"drivers,omitempty"`
	Spans   []span             `json:"spans,omitempty"`
}

// profileHz is the traced child's CPU sampling rate. The default 100 Hz
// leaves a one-second run with ~100 stacks, too few to split thirteen
// ways.
const profileHz = 1000

// childMain runs the job in spec and writes its result to w.
func childMain(spec string, w io.Writer) error {
	var j job
	if err := json.Unmarshal([]byte(spec), &j); err != nil {
		return fmt.Errorf("decode job: %w", err)
	}
	origin := time.Now()
	res := childResult{Job: j}
	res.YardBeforeNs = yardstick(j.Yardstick)
	var err error
	switch j.Role {
	case roleTimed, roleTraced, roleChecked:
		err = runSimulate(j, &res)
	case roleSetup:
		err = runSetup(j, &res)
	case roleDrivers:
		res.Drivers, res.Spans = runDrivers(origin, j.Scale, j.Blocks)
	default:
		err = fmt.Errorf("unknown role %q", j.Role)
	}
	if err != nil {
		return err
	}
	res.YardAfterNs = yardstick(j.Yardstick)
	res.PeakRSSKB = peakRSSKB()
	return json.NewEncoder(w).Encode(res)
}

// yardstick times n draws of sim.Rand.Uint64 and returns ns per draw:
// a loop whose cost depends on the host alone, recorded beside every
// measurement so sets from different hosts can be normalised.
func yardstick(n int) float64 {
	if n <= 0 {
		return 0
	}
	r := sim.NewRand(1)
	var x uint64
	start := time.Now()
	for i := 0; i < n; i++ {
		x ^= r.Uint64()
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(n)
	sink += int(x & 1)
	return ns
}

func jobConfig(j job) (pase.SimConfig, error) {
	w, ok := workloadByName(j.Workload)
	if !ok {
		return pase.SimConfig{}, fmt.Errorf("unknown workload %q", j.Workload)
	}
	cfg := w.Cfg
	cfg.Seed = j.Seed
	cfg.NumFlows = j.Flows
	return cfg, nil
}

func runSimulate(j job, res *childResult) error {
	cfg, err := jobConfig(j)
	if err != nil {
		return err
	}
	cfg.Obs = j.Role != roleTimed
	cfg.Check = j.Role == roleChecked

	var prof bytes.Buffer
	if j.Role == roleTraced {
		// StartCPUProfile insists on 100 Hz unless a rate is already
		// set; the runtime then logs that it kept ours.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	rep, err := pase.Simulate(cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if j.Role == roleTraced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}

	res.WallS = wall.Seconds()
	res.Flows, res.Completed = rep.Flows, rep.Completed
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.GCCount = m1.NumGC - m0.NumGC
	res.GCPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	res.Digest = fmt.Sprintf("%016x", reportDigest(rep))
	res.Violations = rep.Violations
	res.AFCTNs, res.P99Ns, res.LossRate = int64(rep.AFCT), int64(rep.P99), rep.LossRate
	if rep.Obs != nil {
		res.Counters, res.Gauges = rep.Obs.Counters, rep.Obs.Gauges
	}
	if j.Role == roleTraced {
		res.CPUShares, res.ProfileStack, err = cpuShares(prof.Bytes())
	}
	return err
}

// reportDigest folds the run's simulated-time results into one FNV-1a
// hash. Obs and Check must not move it, and neither may an
// optimisation.
func reportDigest(r *pase.Report) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []uint64{
		uint64(r.Flows), uint64(r.Completed), uint64(r.Aborted),
		uint64(r.AFCT), uint64(r.P50), uint64(r.P99),
		math.Float64bits(r.LossRate),
		uint64(r.CtrlMessages), uint64(r.Retransmits), uint64(r.Timeouts),
	} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}

// runSetup times fabric set-up plus teardown: Simulate at NumFlows=1,
// in blocks of Reps back-to-back calls because one call is 0.6–70 ms
// and varies by ±15%.
func runSetup(j job, res *childResult) error {
	cfg, err := jobConfig(j)
	if err != nil {
		return err
	}
	cfg.NumFlows = 1
	for b := 0; b < j.Blocks; b++ {
		start := time.Now()
		for i := 0; i < j.Reps; i++ {
			if _, err := pase.Simulate(cfg); err != nil {
				return err
			}
		}
		res.SetupBlockS = append(res.SetupBlockS, time.Since(start).Seconds())
	}
	return nil
}

// peakRSSKB reads the process's resident-set high-water mark.
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 10, 64)
			return kb
		}
	}
	return 0
}
