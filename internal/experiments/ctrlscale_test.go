package experiments

import (
	"fmt"
	"testing"
)

// TestCtrlScaleAcceptance pins the scaling claim the ctrlscale figure
// makes: with the workload held fixed, the hierarchy's control-message
// count grows sub-linearly in fabric size while the centralized arm's
// grows with the fabric (its sync traffic touches every link every
// epoch). Both arms must complete every flow with zero checker
// violations at every size.
func TestCtrlScaleAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point checked sweep")
	}
	const flows = 400
	rackCounts := []int{16, 64, 256}
	msgs := map[string][]float64{}
	for _, arm := range []struct {
		name string
		opt  PASEOptions
	}{
		{"hierarchy", PASEOptions{}},
		{"central", PASEOptions{Central: true}},
	} {
		for _, racks := range rackCounts {
			cfg := PointConfig{
				Protocol: PASE,
				Scenario: Scenario(fmt.Sprintf("%s-%d", CtrlScale, racks)),
				Load:     0.6,
				Seed:     7,
				NumFlows: flows,
				Check:    true,
				Obs:      true,
				PASE:     arm.opt,
			}
			r := RunPoint(cfg)
			if r.Violations != 0 {
				t.Fatalf("%s at %d racks: %d checker violations:\n%v",
					arm.name, racks, r.Violations, r.CheckViolations)
			}
			if r.Summary.Completed != flows {
				t.Fatalf("%s at %d racks: %d/%d flows completed",
					arm.name, racks, r.Summary.Completed, flows)
			}
			if r.Obs == nil {
				t.Fatalf("%s at %d racks: no observability snapshot", arm.name, racks)
			}
			m := float64(r.Obs.Counters["arb/messages"])
			if m <= 0 {
				t.Fatalf("%s at %d racks: no control messages recorded", arm.name, racks)
			}
			msgs[arm.name] = append(msgs[arm.name], m)
		}
	}
	fabricRatio := float64(rackCounts[len(rackCounts)-1]) / float64(rackCounts[0]) // 16×
	hierGrowth := msgs["hierarchy"][2] / msgs["hierarchy"][0]
	centGrowth := msgs["central"][2] / msgs["central"][0]
	t.Logf("control messages over a %gx fabric: hierarchy ×%.2f, central ×%.2f",
		fabricRatio, hierGrowth, centGrowth)
	// Sub-linear: the hierarchy's growth stays far under the fabric's.
	// Measured ×1.40 over 16× racks; half the fabric ratio leaves room
	// for workload-mix drift without masking a real regression.
	if hierGrowth >= fabricRatio/2 {
		t.Errorf("hierarchy control messages grew ×%.2f over a %gx fabric — no longer sub-linear",
			hierGrowth, fabricRatio)
	}
	// The centralized arm pays for fabric size (measured ×3.28): it
	// must grow at least ~2× faster than the hierarchy, or the
	// comparison the figure draws has silently collapsed.
	if centGrowth < 1.8*hierGrowth {
		t.Errorf("central growth ×%.2f is not meaningfully above hierarchy growth ×%.2f",
			centGrowth, hierGrowth)
	}
}
