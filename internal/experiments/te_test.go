package experiments

import "testing"

// Tests for the reactive routing control loop on the te-failover
// scenario: failure rerouting keeps flows alive through uplink
// outages and frozen ECMP strands them. The reroute-only, te-idle and
// traced-reroute pins (pins_test.go) hold the loop repeatable.

// teChaosPoint is the te figure's stress point at test scale: PASE on
// the 4-leaf × 3-spine fabric with every leaf's spine-0 uplink failing
// in a staggered wave, rerouted or not.
func teChaosPoint(p Protocol, reroute bool) PointConfig {
	ls := teFailoverLS()
	return PointConfig{
		Protocol:   p,
		Scenario:   TEFailover,
		Load:       0.6,
		Seed:       1,
		NumFlows:   300,
		Check:      true,
		Obs:        true,
		Reroute:    reroute,
		AbortAfter: TEAbortAfter,
		Faults:     teUplinkChaos(ls, ls.Racks, 1),
	}
}

// TestTERerouteSurvival: with rerouting on, PASE keeps at least 95% of
// flows alive through the full uplink-failure wave, with AFCT within 2x
// of the fault-free run and a clean checked run, and every DCTCP flow
// completes with no packet meeting a dead link.
func TestTERerouteSurvival(t *testing.T) {
	t.Run("reroute-only", func(t *testing.T) {
		cfg := teChaosPoint(DCTCP, true)
		r := RunPoint(cfg)
		if r.Violations != 0 {
			t.Fatalf("invariant checker reported %d violations:\n%v", r.Violations, r.CheckViolations)
		}
		if sum := r.Summary; sum.Flows == 0 || sum.Completed != sum.Flows {
			t.Errorf("%d/%d flows completed (%d aborted) with rerouting on, want all", sum.Completed, sum.Flows, sum.Aborted)
		}
		if n := r.Obs.Counters["faults/blackholed"]; n != 0 {
			t.Errorf("faults/blackholed = %d: rerouted traffic still met a dead uplink", n)
		}
	})

	cfg := teChaosPoint(PASE, true)
	r := RunPoint(cfg)
	if r.Violations != 0 {
		t.Fatalf("invariant checker reported %d violations:\n%v", r.Violations, r.CheckViolations)
	}
	sum := r.Summary
	if sum.Flows == 0 {
		t.Fatal("no flows ran")
	}
	survival := float64(sum.Completed) / float64(sum.Flows)
	if survival < 0.95 {
		t.Errorf("survival %.3f (%d/%d completed, %d aborted), want >= 0.95",
			survival, sum.Completed, sum.Flows, sum.Aborted)
	}
	if n := r.Obs.Counters["route/link_down"]; n != int64(teFailoverLS().Racks) {
		t.Errorf("route/link_down = %d, want %d (one per failed uplink)",
			n, teFailoverLS().Racks)
	}

	clean := cfg
	clean.Faults = nil
	cr := RunPoint(clean)
	if cr.Violations != 0 {
		t.Fatalf("fault-free run reported %d violations", cr.Violations)
	}
	if cr.Summary.AFCT == 0 {
		t.Fatal("fault-free run completed nothing")
	}
	if sum.AFCT > 2*cr.Summary.AFCT {
		t.Errorf("faulted AFCT %v > 2x fault-free %v", sum.AFCT, cr.Summary.AFCT)
	}
}

// TestTEFrozenRoutingStrands is the control arm: the same failure wave
// with the loop off blackholes the spine-0 flows, which the progress
// deadline turns into aborts — proving the chaos plan actually bites
// and that aborts are counted and excluded from completion.
func TestTEFrozenRoutingStrands(t *testing.T) {
	r := RunPoint(teChaosPoint(PASE, false))
	if r.Violations != 0 {
		t.Fatalf("invariant checker reported %d violations:\n%v", r.Violations, r.CheckViolations)
	}
	sum := r.Summary
	if sum.Aborted == 0 {
		t.Fatal("frozen routing under the uplink wave should strand and abort flows")
	}
	if got := r.Obs.Counters["transport/aborts"]; got != int64(sum.Aborted) {
		t.Errorf("transport/aborts = %d, Summary.Aborted = %d", got, sum.Aborted)
	}
	if sum.Completed+sum.Aborted > sum.Flows {
		t.Errorf("completed %d + aborted %d exceeds flows %d", sum.Completed, sum.Aborted, sum.Flows)
	}
	if survival := float64(sum.Completed) / float64(sum.Flows); survival >= 0.95 {
		t.Errorf("frozen-routing survival %.3f unexpectedly high — chaos plan is not biting", survival)
	}
}

// TestTESeedsAverage holds the te figure to Opts.Seeds: each point of
// a two-seed run is the mean of the one-seed runs at Seed and Seed+1.
func TestTESeedsAverage(t *testing.T) {
	fig, _ := Lookup("te")
	run := func(seed uint64, seeds int) *Result {
		return fig.Run(Opts{NumFlows: 120, Seed: seed, Seeds: seeds})
	}
	both, one, two := run(1, 2), run(1, 1), run(2, 1)
	if both.Points != 2*one.Points {
		t.Fatalf("two seeds ran %d points, one seed %d", both.Points, one.Points)
	}
	moved := false
	for i, s := range both.Series {
		for j, y := range s.Y {
			a, b := one.Series[i].Y[j], two.Series[i].Y[j]
			moved = moved || a != b
			if y != (a+b)/2 {
				t.Errorf("%s at x=%g: two-seed mean %v, want (%v+%v)/2", s.Name, s.X[j], y, a, b)
			}
		}
	}
	if !moved {
		t.Error("seeds 1 and 2 agree at every point, so the mean proves nothing")
	}
}
