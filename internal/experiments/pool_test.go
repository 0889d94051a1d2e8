package experiments

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"
)

// The pool's contract: parallel execution must be invisible in the
// output. These tests run down-scaled figures serially and with 8
// workers and require byte-identical TSVs, merged snapshots and raw
// results; `go test -race` over this file doubles as the data-race
// check on the pool. None stores a value: each compares two runs.

// sameTSV requires figure id to render byte-identical TSVs under a and b.
func sameTSV(t *testing.T, id string, a, b Opts) {
	t.Helper()
	ta, tb := tsvOut.run(t, input{fig: id, opts: a}), tsvOut.run(t, input{fig: id, opts: b})
	if !bytes.Equal(ta, tb) {
		t.Fatalf("figure %s: TSVs diverge\n%s\nvs\n%s", id, ta, tb)
	}
}

// serialVsPool requires o to render the same at 1 and n workers.
func serialVsPool(t *testing.T, id string, o Opts, n int) {
	t.Helper()
	p := o
	o.Parallelism, p.Parallelism = 1, n
	sameTSV(t, id, o, p)
}

// Figure 9a: a plain metric sweep (3 variants × loads).
func TestParallelDeterminismFig9a(t *testing.T) {
	serialVsPool(t, "9a", Opts{NumFlows: 80, Seed: 5, Loads: []float64{0.4, 0.7}}, 8)
}

// Figure 9b: the CDF path, where whole distributions must match.
func TestParallelDeterminismFig9b(t *testing.T) {
	serialVsPool(t, "9b", Opts{NumFlows: 80, Seed: 5}, 8)
}

// Figure 11a: the pruning+delegation ablation with its paired on/off
// runs and multi-seed averaging.
func TestParallelDeterminismAblation11a(t *testing.T) {
	serialVsPool(t, "11a", Opts{NumFlows: 60, Seed: 5, Loads: []float64{0.7}}, 8)
}

// The run manifests promise that the merged observability snapshot is
// parallelism-invariant: byte-identical JSON (the manifest encoding)
// at any worker count. Snapshots are merged in input order, so this
// holds despite non-deterministic completion order.
func snapshotSerialVsParallel(t *testing.T, id string, o Opts) {
	t.Helper()
	fig, ok := Lookup(id)
	if !ok {
		t.Fatalf("figure %s missing", id)
	}
	o.Obs = true
	so := o
	so.Parallelism = 1
	po := o
	po.Parallelism = 8
	var calls atomic.Int64
	po.Progress = func(done, total int) { calls.Add(1) }
	serial := fig.Run(so)
	parallel := fig.Run(po)
	if serial.Obs == nil || len(serial.Obs.Counters) == 0 {
		t.Fatalf("figure %s: Obs run produced no snapshot", id)
	}
	if serial.Points == 0 || serial.Points != parallel.Points {
		t.Fatalf("figure %s: points serial=%d parallel=%d", id, serial.Points, parallel.Points)
	}
	if int(calls.Load()) != parallel.Points {
		t.Fatalf("figure %s: progress called %d times for %d points", id, calls.Load(), parallel.Points)
	}
	sj, err := json.Marshal(serial.Obs)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(parallel.Obs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatalf("figure %s: merged snapshots diverge\nserial:   %s\nparallel: %s", id, sj, pj)
	}
	if serial.Retx != parallel.Retx || serial.Timeouts != parallel.Timeouts {
		t.Fatalf("figure %s: totals diverge: retx %d/%d timeouts %d/%d",
			id, serial.Retx, parallel.Retx, serial.Timeouts, parallel.Timeouts)
	}
}

// Figure 9a: the plain sweep path (sweepResult).
func TestSnapshotDeterminismFig9a(t *testing.T) {
	snapshotSerialVsParallel(t, "9a", Opts{NumFlows: 80, Seed: 5, Loads: []float64{0.7}})
}

// Figure 12a: the ablation path with hand-built point grids.
func TestSnapshotDeterminismAblation12a(t *testing.T) {
	snapshotSerialVsParallel(t, "12a", Opts{NumFlows: 60, Seed: 5, Loads: []float64{0.7}})
}

func TestRunPointsOrderAndCompleteness(t *testing.T) {
	// Results come back in input order regardless of which worker
	// finishes first; heterogenous configs keep them distinguishable.
	var cfgs []PointConfig
	for _, load := range []float64{0.2, 0.5, 0.8} {
		for _, p := range []Protocol{DCTCP, PASE} {
			cfgs = append(cfgs, PointConfig{Protocol: p, Scenario: IntraRack,
				Load: load, Seed: 3, NumFlows: 50})
		}
	}
	serial := RunPoints(cfgs, 1, nil)
	parallel := RunPoints(cfgs, 8, nil)
	if len(serial) != len(cfgs) || len(parallel) != len(cfgs) {
		t.Fatalf("result count: serial=%d parallel=%d want %d",
			len(serial), len(parallel), len(cfgs))
	}
	for i := range cfgs {
		if serial[i].Summary.AFCT != parallel[i].Summary.AFCT ||
			serial[i].CtrlMessages != parallel[i].CtrlMessages ||
			serial[i].LossRate != parallel[i].LossRate {
			t.Fatalf("point %d (%s @ %g): serial %+v vs parallel %+v",
				i, cfgs[i].Protocol, cfgs[i].Load, serial[i].Summary, parallel[i].Summary)
		}
	}
}

func TestRunPointsEdgeCases(t *testing.T) {
	if got := RunPoints(nil, 4, nil); len(got) != 0 {
		t.Fatalf("empty input should yield empty output, got %d", len(got))
	}
	one := []PointConfig{{Protocol: DCTCP, Scenario: IntraRack, Load: 0.5, Seed: 1, NumFlows: 40}}
	// More workers than work, zero (= GOMAXPROCS) and negative
	// parallelism must all behave.
	for _, par := range []int{-1, 0, 1, 16} {
		got := RunPoints(one, par, nil)
		if len(got) != 1 || got[0].Summary.Completed != 40 {
			t.Fatalf("parallelism %d: %+v", par, got[0].Summary)
		}
	}
}

func TestMapPointsMatchesRunPoints(t *testing.T) {
	cfgs := []PointConfig{
		{Protocol: DCTCP, Scenario: IntraRack, Load: 0.4, Seed: 2, NumFlows: 50},
		{Protocol: PASE, Scenario: IntraRack, Load: 0.6, Seed: 2, NumFlows: 50},
	}
	full := RunPoints(cfgs, 1, nil)
	ys := make([]float64, len(cfgs))
	var res Result
	mapPoints(cfgs, 4, nil, &res, func(i int, r PointResult) { ys[i] = afctMS(r) })
	if res.Points != len(cfgs) || res.Retx != full[0].Retransmits+full[1].Retransmits {
		t.Fatalf("mapPoints totals: %d points, %d retx", res.Points, res.Retx)
	}
	for i := range cfgs {
		if ys[i] != afctMS(full[i]) {
			t.Fatalf("point %d: mapPoints %v vs RunPoints %v", i, ys[i], afctMS(full[i]))
		}
	}
}
