package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pase/internal/faults"
	"pase/internal/obs"
	"pase/internal/sim"
)

// flapLossPlan is the data-plane half of the chaos plan: every link
// flaps, packets drop and data corrupts.
func flapLossPlan() *faults.Plan {
	return &faults.Plan{
		Seed: 3,
		Links: []faults.LinkFault{
			{Link: -1, At: 2 * sim.Millisecond, For: 300 * sim.Microsecond, Every: 5 * sim.Millisecond},
		},
		Loss: []faults.LossFault{
			{Link: -1, Class: faults.Any, Rate: 0.02},
			{Link: -1, Class: faults.DataClass, Corrupt: 0.01},
		},
	}
}

// chaosPlan is the soak schedule: every fault type at once, each
// severe enough to bite but none a permanent blackhole — links always
// come back, arbitrators always restart, loss is probabilistic. Every
// flow must therefore still complete.
func chaosPlan() *faults.Plan {
	p := flapLossPlan()
	p.Ctrl = []faults.CtrlFault{{Drop: 0.3, Delay: 20 * sim.Microsecond}}
	p.Crashes = []faults.CrashFault{
		{Link: -1, At: 7 * sim.Millisecond, For: 700 * sim.Microsecond, Every: 9 * sim.Millisecond},
	}
	return p
}

// zeroPlan names faults whose every probability is zero.
func zeroPlan() *faults.Plan {
	return &faults.Plan{
		Loss: []faults.LossFault{{Link: -1, Rate: 0, Corrupt: 0}},
		Ctrl: []faults.CtrlFault{{Drop: 0}},
	}
}

// TestChaosSoak runs PASE through the full chaos plan with the
// invariant checker attached: link flaps, data loss and corruption,
// a lossy slow control plane and periodic arbitrator crashes. The
// graceful-degradation contract says every flow still completes and
// no invariant breaks. `make chaos-smoke` runs this under PASE_CHECK=1.
func TestChaosSoak(t *testing.T) {
	r := RunPoint(PointConfig{
		Protocol: PASE, Scenario: LeftRight, Load: 0.6,
		Seed: 11, NumFlows: 200,
		Check: true, Obs: true,
		Faults: chaosPlan(),
	})
	if r.Violations != 0 {
		t.Fatalf("invariant checker reported %d violations:\n%v",
			r.Violations, r.CheckViolations)
	}
	if r.Summary.Completed != r.Summary.Flows {
		t.Fatalf("%d of %d flows completed under chaos",
			r.Summary.Completed, r.Summary.Flows)
	}
	// Every fault class must actually have fired — a soak that injects
	// nothing proves nothing.
	for _, c := range []string{
		"faults/link_down", "faults/link_up", "faults/drop_data",
		"faults/ctrl_req_drop", "faults/arb_crash", "faults/arb_restart",
	} {
		if r.Obs.Counters[c] == 0 {
			t.Errorf("counter %s = 0, want > 0 (counters: %v)", c, r.Obs.Counters)
		}
	}
	// The endpoints must have exercised the degradation path: retries
	// against the lossy control plane, reusing the previous allocation.
	if r.Obs.Counters["pase/arb_retries"] == 0 {
		t.Error("no arbitration retries despite 30% control-plane loss")
	}
}

// TestFaultPlanNonInterference pins the zero-fault guarantee on the
// merged snapshot: a nil plan, an empty plan and a plan whose every
// probability is zero leave figure 9a's observability identical, because
// zero-probability rules never consume an RNG draw and the fault stream
// is separate from the workload stream anyway. (Its TSV under each plan
// is the fig9a-100x2 pin and its empty-plan and zero-plan twins.)
func TestFaultPlanNonInterference(t *testing.T) {
	fig, ok := Lookup("9a")
	if !ok {
		t.Fatal("figure 9a not registered")
	}
	run := func(pl *faults.Plan) *obs.Snapshot {
		return fig.Run(Opts{NumFlows: 100, Seed: 1, Seeds: 2,
			Loads: []float64{0.5}, Obs: true, Faults: pl}).Obs
	}
	nilSnap, emptySnap, zeroSnap := run(nil), run(&faults.Plan{}), run(zeroPlan())
	// An empty plan never builds an injector, so even the snapshot is
	// identical; the zero-rate plan only adds its (all-zero) faults/*
	// counters.
	if !snapEqual(t, nilSnap, emptySnap) {
		t.Error("empty plan changed the merged snapshot")
	}
	for name, v := range zeroSnap.Counters {
		if strings.HasPrefix(name, "faults/") {
			if v != 0 {
				t.Errorf("zero-probability plan fired %s = %d", name, v)
			}
			delete(zeroSnap.Counters, name)
		}
	}
	if !snapEqual(t, nilSnap, zeroSnap) {
		t.Error("zero-probability plan changed the merged snapshot beyond its own zero counters")
	}
}

func snapEqual(t *testing.T, a, b *obs.Snapshot) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// TestArbitratorCrashRebuild crashes every arbitrator once mid-run and
// lets them restart 500µs later: the soft-state wipe must not strand
// any flow (endpoints keep their previous allocation and re-sync on
// the next answered refresh) and no invariant may break.
func TestArbitratorCrashRebuild(t *testing.T) {
	r := RunPoint(PointConfig{
		Protocol: PASE, Scenario: LeftRight, Load: 0.6,
		Seed: 5, NumFlows: 150,
		Check: true, Obs: true,
		Faults: &faults.Plan{Crashes: []faults.CrashFault{
			{Link: -1, At: 3 * sim.Millisecond, For: 500 * sim.Microsecond},
		}},
	})
	if r.Violations != 0 {
		t.Fatalf("invariant checker reported %d violations:\n%v",
			r.Violations, r.CheckViolations)
	}
	if r.Summary.Completed != r.Summary.Flows {
		t.Fatalf("%d of %d flows completed across the crash",
			r.Summary.Completed, r.Summary.Flows)
	}
	if got := r.Obs.Counters["faults/arb_crash"]; got != 1 {
		t.Fatalf("faults/arb_crash = %d, want 1", got)
	}
	if got := r.Obs.Counters["faults/arb_restart"]; got != 1 {
		t.Fatalf("faults/arb_restart = %d, want 1", got)
	}
}

// TestFallbackCompletesWithoutControlPlane kills the control plane
// outright (100% message loss): every endpoint must hit the fallback
// deadline, drop to lowest-priority DCTCP mode, and still finish its
// transfer on data-plane mechanics alone.
func TestFallbackCompletesWithoutControlPlane(t *testing.T) {
	r := RunPoint(PointConfig{
		Protocol: PASE, Scenario: LeftRight, Load: 0.5,
		Seed: 2, NumFlows: 100,
		Check: true, Obs: true,
		Faults: &faults.Plan{Ctrl: []faults.CtrlFault{{Drop: 1}}},
	})
	if r.Violations != 0 {
		t.Fatalf("invariant checker reported %d violations:\n%v",
			r.Violations, r.CheckViolations)
	}
	if r.Summary.Completed != r.Summary.Flows {
		t.Fatalf("%d of %d flows completed without a control plane",
			r.Summary.Completed, r.Summary.Flows)
	}
	if r.Obs.Counters["pase/fallbacks"] == 0 {
		t.Error("no endpoint entered DCTCP-mode fallback despite 100% control loss")
	}
	if r.Obs.Counters["pase/resyncs"] != 0 {
		t.Error("endpoints re-synced with a 100%-lossy control plane")
	}
}

// TestRobustnessDegradesTowardDCTCP checks the shape of the robustness
// experiment at test scale: fault-free PASE beats the DCTCP baseline,
// heavy control-plane loss costs PASE performance, and even at 95%
// loss the fallback keeps PASE in the same regime as DCTCP instead of
// collapsing.
func TestRobustnessDegradesTowardDCTCP(t *testing.T) {
	point := func(drop float64, proto Protocol) float64 {
		cfg := PointConfig{Protocol: proto, Scenario: LeftRight,
			Load: 0.7, Seed: 1, NumFlows: 150}
		if drop > 0 {
			cfg.Faults = &faults.Plan{Ctrl: []faults.CtrlFault{{Drop: drop}}}
		}
		return RunPoint(cfg).Summary.AFCT.Millis()
	}
	clean := point(0, PASE)
	lossy := point(0.95, PASE)
	dctcp := point(0, DCTCP)
	if clean >= dctcp {
		t.Errorf("fault-free PASE (%.3f ms) not better than DCTCP (%.3f ms)", clean, dctcp)
	}
	if lossy <= clean {
		t.Errorf("95%% control loss did not degrade PASE: %.3f ms vs %.3f ms clean", lossy, clean)
	}
	// Degrade toward the baseline, not through the floor: the fallback
	// is DCTCP at the lowest priority, so a generous constant-factor
	// envelope around the DCTCP AFCT is the contract.
	if lossy > 3*dctcp {
		t.Errorf("degraded PASE (%.3f ms) collapsed far past the DCTCP baseline (%.3f ms)", lossy, dctcp)
	}
}

// TestChaosCentral runs the centralized control-plane arm through a
// lossy control plane and periodic arbitrator crashes: requests and
// responses are lost, refreshes hit a dead arbitrator and releases go
// missing, yet every flow must complete with no invariant broken.
func TestChaosCentral(t *testing.T) {
	r := RunPoint(PointConfig{
		Protocol: PASE, Scenario: Scenario("ctrlscale-16"), Load: 0.6,
		Seed: 11, NumFlows: 200, PASE: PASEOptions{Central: true},
		Check: true, Obs: true,
		Faults: &faults.Plan{
			Seed: 4,
			Ctrl: []faults.CtrlFault{{Drop: 0.2}},
			Crashes: []faults.CrashFault{
				{Link: -1, At: 2 * sim.Millisecond, For: 500 * sim.Microsecond, Every: 4 * sim.Millisecond},
			},
		},
	})
	if r.Violations != 0 {
		t.Fatalf("invariant checker reported %d violations:\n%v", r.Violations, r.CheckViolations)
	}
	if r.Summary.Completed != r.Summary.Flows {
		t.Fatalf("%d of %d flows completed under control-plane chaos", r.Summary.Completed, r.Summary.Flows)
	}
	for _, c := range []string{"arb/ctrl_req_dropped", "arb/ctrl_resp_dropped", "arb/ctrl_dead_arb"} {
		if r.Obs.Counters[c] == 0 {
			t.Errorf("counter %s = 0, want > 0", c)
		}
	}
}
