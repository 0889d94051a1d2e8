package experiments

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pase/internal/metrics"
)

// claim is one of the paper's §4 claims as a check: arm a against arm b
// (a/b, or a − b with diff; with b unnamed, a alone) on metric m at one
// scenario and load, in relation rel to bound. Each row runs at 300
// flows on seeds 1–3 and grades ✔ when the check holds on every seed and
// on the seed means, ◐ when on the means only, ✗ otherwise; it may not
// grade below floor. A seed1 row must also hold on seed 1, as it once
// was asserted there. The test claimTests names for the row's exp
// grades it; TestClaims grades the rest and renders them all.
type claim struct {
	exp, paper string
	scenario   Scenario
	load       float64
	a, b       arm
	m          metric
	diff       bool
	rel        string // <, ≤, > or ≥
	bound      float64
	floor      string
	seed1      bool
}

const claimSeeds = 3

func protoArm(p Protocol) arm { return arm{name: string(p), cfg: PointConfig{Protocol: p}} }

func paseArm(name string, o PASEOptions) arm { return arm{name: name, cfg: PointConfig{PASE: o}} }

// flow3MS is the FCT of the toy's flow 3, the flow pFabric stalls.
func flow3MS(r PointResult) float64 {
	return r.Records[slices.IndexFunc(r.Records, func(f metrics.FlowRecord) bool { return f.ID == 3 })].FCT().Millis()
}

var (
	tputM   = metric{name: "deadlines met", of: appTput}
	afctM   = metric{name: "AFCT", of: afctMS}
	p99M    = metric{name: "p99 FCT", of: p99MS}
	lossM   = metric{name: "loss %", of: lossRatePct}
	pase    = protoArm(PASE)
	optsOff = paseArm("PASE without pruning+delegation", PASEOptions{NoPruning: true, NoDelegation: true})
)

var claims = []claim{
	{exp: "Fig 1", paper: "self-adjusting endpoints fall far below pFabric at high load", scenario: Deadline, load: 0.9,
		a: protoArm(PFabric), b: protoArm(D2TCP), m: tputM, rel: ">", bound: 1, floor: "✔"},
	{exp: "Fig 1", paper: "D2TCP ≈ DCTCP at high load", scenario: Deadline, load: 0.9,
		a: protoArm(D2TCP), b: protoArm(DCTCP), m: tputM, diff: true, rel: "≥", bound: -0.05, floor: "✔"},
	{exp: "Fig 2", paper: "PDQ beats DCTCP's AFCT at low load", scenario: IntraRackLarge, load: 0.2,
		a: protoArm(PDQ), b: protoArm(DCTCP), m: afctM, rel: "<", bound: 1, floor: "✔"},
	{exp: "Fig 2", paper: "PDQ loses to DCTCP at high load (flow-switching overhead)", scenario: IntraRackLarge, load: 0.9,
		a: protoArm(PDQ), b: protoArm(DCTCP), m: afctM, rel: ">", bound: 1, floor: "✔"},
	{exp: "Fig 3", paper: "pFabric stalls flow 3 of the toy example; PASE runs it beside flow 1", scenario: toy,
		a: pase, b: protoArm(PFabric), m: metric{name: "flow 3 FCT", of: flow3MS}, rel: "<", bound: 1, floor: "✔"},
	{exp: "Fig 4", paper: "pFabric loses >40% of packets at 80% load", scenario: WorkerAgg, load: 0.8,
		a: protoArm(PFabric), m: lossM, rel: "≥", bound: 25, floor: "✔"},
	{exp: "Fig 4", paper: "PASE keeps the same workload essentially lossless", scenario: WorkerAgg, load: 0.8,
		a: pase, m: lossM, rel: "≤", bound: 2, floor: "✔"},
	{exp: "Fig 9a", paper: "PASE ≥50% better than L2DCT", scenario: LeftRight, load: 0.8,
		a: pase, b: protoArm(L2DCT), m: afctM, rel: "≤", bound: 0.75, floor: "◐", seed1: true},
	{exp: "Fig 9a", paper: "PASE ≥70% better than DCTCP", scenario: LeftRight, load: 0.8,
		a: pase, b: protoArm(DCTCP), m: afctM, rel: "≤", bound: 0.8, floor: "◐", seed1: true},
	{exp: "Fig 9b", paper: "PASE's FCT CDF dominates DCTCP's at 70% load", scenario: LeftRight, load: 0.7,
		a: pase, b: protoArm(DCTCP), m: p99M, rel: "≤", bound: 1, floor: "✔"},
	{exp: "Fig 9c", paper: "PASE ≫ D2TCP/DCTCP in deadlines met", scenario: Deadline, load: 0.9,
		a: pase, b: protoArm(D2TCP), m: tputM, rel: ">", bound: 1, floor: "✔"},
	{exp: "Fig 10a", paper: "PASE ≈ pFabric ≤50% load, up to 85% better p99 at 90%", scenario: LeftRight, load: 0.9,
		a: pase, b: protoArm(PFabric), m: p99M, rel: "≤", bound: 0.15, floor: "✗"},
	{exp: "Fig 10b", paper: "PASE's and pFabric's FCT CDFs comparable at 70% load", scenario: LeftRight, load: 0.7,
		a: pase, b: protoArm(PFabric), m: afctM, rel: "≤", bound: 1, floor: "✗"},
	{exp: "Fig 10c", paper: "PASE beats pFabric at all loads, up to 85%", scenario: WorkerAgg, load: 0.8,
		a: pase, b: protoArm(PFabric), m: afctM, rel: "<", bound: 1, floor: "✔"},
	{exp: "Fig 11a", paper: "pruning+delegation improve AFCT 4–10%", scenario: LeftRight, load: 0.8,
		a: pase, b: optsOff, m: afctM, rel: "≤", bound: 1.25, floor: "✔"},
	{exp: "Fig 11b", paper: "pruning+delegation cut control overhead up to 50%", scenario: LeftRight, load: 0.8,
		a: pase, b: optsOff, m: metric{name: "messages", of: ctrlMsgs}, rel: "≤", bound: 0.8, floor: "✔"},
	{exp: "Fig 12a", paper: "end-to-end arbitration up to 60% better than local-only", scenario: LeftRight, load: 0.9,
		a: pase, b: paseArm("local-only PASE", PASEOptions{LocalOnly: true}), m: afctM, rel: "≤", bound: 0.75, floor: "◐"},
	{exp: "Fig 12b", paper: "4 queues capture most of the benefit; more help marginally", scenario: LeftRight, load: 0.8,
		a: paseArm("PASE 8 queues", PASEOptions{NumQueues: 8}), b: paseArm("PASE 3 queues", PASEOptions{NumQueues: 3}), m: afctM, rel: "≤", bound: 1.15, floor: "✔"},
	{exp: "Fig 13a", paper: "the reference rate halves AFCT against PASE-DCTCP", scenario: IntraRackLarge, load: 0.4,
		a: pase, b: paseArm("PASE-DCTCP", PASEOptions{DisableRefRate: true}), m: afctM, rel: "≤", bound: 1.02, floor: "◐", seed1: true},
	{exp: "Fig 13b", paper: "testbed: PASE's AFCT 50–60% below DCTCP's", scenario: Testbed, load: 0.9,
		a: pase, b: protoArm(DCTCP), m: afctM, rel: "≤", bound: 0.85, floor: "✔"},
	{exp: "§4.3.2", paper: "probing improves AFCT ~2.4%/11% at 80/90% load", scenario: WorkerAgg, load: 0.9,
		a: pase, b: paseArm("PASE without probing", PASEOptions{DisableProbing: true}), m: afctM, rel: "≤", bound: 0.89, floor: "✗"},
}

// claimTests names the test that grades each experiment's rows. Each
// carries the assertions of a shape test that once ran on seed 1 only.
var claimTests = map[string]string{
	"Fig 1": "TestFig1And9cShape", "Fig 9c": "TestFig1And9cShape",
	"Fig 2":   "TestFig2Crossover",
	"Fig 4":   "TestFig4LossRate",
	"Fig 9a":  "TestFig9aShape",
	"Fig 10c": "TestFig10cShape",
	"Fig 11a": "TestFig11OverheadReduction", "Fig 11b": "TestFig11OverheadReduction",
	"Fig 12a": "TestFig12aShape",
	"Fig 12b": "TestFig12bShape",
	"Fig 13a": "TestFig13aShape",
	"Fig 13b": "TestFig13bShape",
}

// config is arm v's point of row c on one seed.
func (c claim) config(v arm, seed uint64) PointConfig {
	p := v.cfg
	p.Protocol, p.Scenario, p.Load, p.NumFlows, p.Seed = cmp.Or(p.Protocol, PASE), c.scenario, c.load, 300, seed
	return p
}

// check is the row's compared quantity from a's and b's metric, and
// whether it stands in relation rel to bound.
func (c claim) check(a, b float64) (float64, bool) {
	q := ratio(a, b)
	if c.b.name == "" || c.diff {
		q = a - b // b is 0 without an arm
	}
	return q, map[string]bool{"<": q < c.bound, "≤": q <= c.bound, ">": q > c.bound, "≥": q >= c.bound}[c.rel]
}

// String is the row's check as the Summary prints it.
func (c claim) String() string {
	q, at := c.a.name, fmt.Sprintf("%s, %.0f%% load", c.scenario, c.load*100)
	if c.b.name != "" {
		q += map[bool]string{false: "/", true: " − "}[c.diff] + c.b.name
	}
	if c.scenario == toy {
		at = "toy, its own three flows"
	}
	return fmt.Sprintf("%s %s %s %g (%s)", q, c.m.name, c.rel, c.bound, at)
}

// claimRuns holds every point a claims test has run, so a point two
// rows or two tests share runs once per test binary.
var claimRuns = struct {
	sync.Mutex
	res map[PointConfig]PointResult
}{res: map[PointConfig]PointResult{}}

// claimResults runs, in one RunPointsOpts batch, each point of rows not
// yet run, and returns the results of rows' points.
func claimResults(rows []claim) map[PointConfig]PointResult {
	claimRuns.Lock()
	defer claimRuns.Unlock()
	var cfgs []PointConfig
	out := map[PointConfig]PointResult{}
	for _, c := range rows {
		for seed := uint64(1); seed <= claimSeeds; seed++ {
			for _, v := range []arm{c.a, c.b} {
				p := c.config(v, seed)
				if r, ok := claimRuns.res[p]; ok {
					out[p] = r
				} else if !slices.Contains(cfgs, p) && v.name != "" {
					cfgs = append(cfgs, p)
				}
			}
		}
	}
	for i, r := range RunPointsOpts(cfgs, Opts{}) {
		claimRuns.res[cfgs[i]], out[cfgs[i]] = r, r
	}
	return out
}

// grading is one row's grade: the compared quantity per seed and of the
// seed means, and whether the check holds on seed 1.
type grading struct {
	seeds      []string
	mean       float64
	grade      string
	seed1Holds bool
}

func (c claim) grade(res map[PointConfig]PointResult) grading {
	g := grading{grade: "✗"}
	var sum [2]float64
	every := true
	for seed := uint64(1); seed <= claimSeeds; seed++ {
		var m [2]float64
		for i, v := range []arm{c.a, c.b} {
			if v.name != "" {
				m[i] = c.m.value(res[c.config(v, seed)])
				sum[i] += m[i]
			}
		}
		q, ok := c.check(m[0], m[1])
		g.seeds, every = append(g.seeds, num(q)), every && ok
		if seed == 1 {
			g.seed1Holds = ok
		}
	}
	var ok bool
	g.mean, ok = c.check(sum[0]/claimSeeds, sum[1]/claimSeeds)
	switch {
	case ok && every:
		g.grade = "✔"
	case ok:
		g.grade = "◐"
	}
	return g
}

func num(q float64) string { return strconv.FormatFloat(q, 'g', 3, 64) }

// gradeClaims grades the rows claimTests gives to t's test (to
// TestClaims, the rows it gives to none): a row fails below its floor
// and, if seed1, when its check is false on seed 1.
func gradeClaims(t *testing.T) {
	var rows []claim
	for _, c := range claims {
		if cmp.Or(claimTests[c.exp], "TestClaims") == t.Name() {
			rows = append(rows, c)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no claim row is graded by %s", t.Name())
	}
	res := claimResults(rows)
	for _, c := range rows {
		g := c.grade(res)
		if c.seed1 && !g.seed1Holds {
			t.Errorf("%s: %v fails on seed 1: %s", c.exp, c, g.seeds[0])
		}
		if strings.Index("✗◐✔", g.grade) < strings.Index("✗◐✔", c.floor) {
			t.Errorf("%s: %v grades %s (seeds %s, mean %s), below its floor %s", c.exp, c, g.grade, strings.Join(g.seeds, ", "), num(g.mean), c.floor)
		}
	}
}

// TestClaims grades the rows no figure test claims, and holds
// EXPERIMENTS.md's Summary to the rendered grades of every row, which
// PASE_UPDATE=1 rewrites.
func TestClaims(t *testing.T) {
	gradeClaims(t)
	res := claimResults(claims)
	var b strings.Builder
	b.WriteString("\n\n| Exp | Claim in paper | Checked at 300 flows | Seeds 1 / 2 / 3 | Mean | Grade |\n|---|---|---|---|---|---|\n")
	for _, c := range claims {
		g := c.grade(res)
		fmt.Fprintf(&b, "| %s | %s | %v | %s | %s | %s |\n", c.exp, c.paper, c, strings.Join(g.seeds, " / "), num(g.mean), g.grade)
	}
	b.WriteString("\n")
	syncDoc(t, "EXPERIMENTS.md", "<!-- claims:begin -->", "<!-- claims:end -->", b.String(), os.Getenv("PASE_UPDATE") != "")
}

// Figures 1 and 9c: at high load, deadline-aware self-adjusting
// endpoints degrade toward DCTCP while pFabric and PASE keep meeting
// deadlines.
func TestFig1And9cShape(t *testing.T) { gradeClaims(t) }

// Figure 2: PDQ wins at low load (fast convergence) and loses at high
// load (flow-switching overhead).
func TestFig2Crossover(t *testing.T) { gradeClaims(t) }

// Figure 4: pFabric loses a large fraction of packets under the
// worker-aggregator fan-in; PASE stays essentially lossless.
func TestFig4LossRate(t *testing.T) { gradeClaims(t) }

// Figure 9a: PASE clearly beats L2DCT and DCTCP in left-right at high
// load.
func TestFig9aShape(t *testing.T) { gradeClaims(t) }

// Figure 10c: in the worker-aggregator scenario PASE beats pFabric at
// high load.
func TestFig10cShape(t *testing.T) { gradeClaims(t) }

// Figure 11: pruning and delegation cut control-plane messages without
// costing much AFCT.
func TestFig11OverheadReduction(t *testing.T) { gradeClaims(t) }

// Figure 12a: end-to-end arbitration beats local-only at high load.
func TestFig12aShape(t *testing.T) { gradeClaims(t) }

// Figure 12b: 8 queues do not lose clearly to 3.
func TestFig12bShape(t *testing.T) { gradeClaims(t) }

// Figure 13a: removing the reference rate (PASE-DCTCP) hurts.
func TestFig13aShape(t *testing.T) { gradeClaims(t) }

// Figure 13b: on the simulated testbed PASE clearly beats DCTCP.
func TestFig13bShape(t *testing.T) { gradeClaims(t) }
