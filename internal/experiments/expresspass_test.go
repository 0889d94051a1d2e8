package experiments

import (
	"math"
	"testing"

	"pase/internal/metrics"
)

// ExpressPass conformance: beyond its pins (conformance-ExpressPass,
// sharded-ExpressPass-*, expresspass-faults in pins_test.go), the credit
// transport must stream exactly like it stores and hold its
// construction guarantee — zero data-plane drops with a bounded queue
// peak — in the massive-incast scenarios where window-based transports
// overrun shallow buffers.

// TestExpressPassStreamMatchesStored: the streaming collector path must
// agree exactly with the stored path on every sum-derived metric and
// within the sketch's ε on quantiles — including the credit-plane
// control message total.
func TestExpressPassStreamMatchesStored(t *testing.T) {
	base := PointConfig{Protocol: ExpressPass, Scenario: IntraRack,
		Load: 0.6, Seed: 1, NumFlows: 2000, Check: true}
	stored := RunPoint(base)

	streamed := base
	streamed.Stream = true
	got := RunPoint(streamed)

	a, b := stored.Summary, got.Summary
	if a.Flows != b.Flows || a.Completed != b.Completed || a.AFCT != b.AFCT ||
		a.MaxFCT != b.MaxFCT || a.Retransmits != b.Retransmits || a.Timeouts != b.Timeouts {
		t.Fatalf("exact metrics diverge:\nstored %+v\nstream %+v", a, b)
	}
	if stored.Queues != got.Queues {
		t.Fatalf("queue totals diverge:\nstored %+v\nstream %+v", stored.Queues, got.Queues)
	}
	if stored.CtrlMessages != got.CtrlMessages || stored.CtrlMessages == 0 {
		t.Fatalf("credit message totals diverge (or zero): stored %d, stream %d",
			stored.CtrlMessages, got.CtrlMessages)
	}
	eps := metrics.DefaultSketchEps
	for _, q := range []struct {
		name       string
		got, exact int64
	}{
		{"P50", int64(b.P50), int64(a.P50)},
		{"P99", int64(b.P99), int64(a.P99)},
	} {
		if math.Abs(float64(q.got-q.exact)) > eps*float64(q.exact)+1 {
			t.Fatalf("%s: stream %d vs stored %d beyond eps %g", q.name, q.got, q.exact, eps)
		}
	}
}

// TestExpressPassIncastBounded is the headline regression: in the
// 64→1 and 256→1 incasts at 100 Gbps, ExpressPass must complete every
// flow with zero data-plane drops and a data-queue peak bounded far
// below the buffer, while DCTCP — with more synchronized senders than
// buffer slots in the 256→1 case — overruns and drops. Runs execute
// under the invariant checker (credit_pace, queue_cap, conservation).
func TestExpressPassIncastBounded(t *testing.T) {
	for _, s := range []Scenario{Incast64, Incast256} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			cfg := PointConfig{Protocol: ExpressPass, Scenario: s,
				Load: 0.7, Seed: 7, NumFlows: 1000, Check: true}
			ep := RunPoint(cfg)
			if ep.Violations != 0 {
				t.Fatalf("invariant checker reported %d violations:\n%v",
					ep.Violations, ep.CheckViolations)
			}
			if ep.Summary.Completed != ep.Summary.Flows {
				t.Fatalf("%d of %d flows completed", ep.Summary.Completed, ep.Summary.Flows)
			}
			if ep.Queues.DroppedData != 0 {
				t.Fatalf("ExpressPass dropped %d data packets; credit shaping must prevent all data drops",
					ep.Queues.DroppedData)
			}
			if ep.Queues.MaxLen > DCTCPQueueSize/2 {
				t.Fatalf("ExpressPass data-queue peak %d is not bounded well below the %d-packet buffer",
					ep.Queues.MaxLen, DCTCPQueueSize)
			}
			if ep.CtrlMessages == 0 {
				t.Fatal("no credit-plane messages recorded")
			}

			cfg.Protocol = DCTCP
			dc := RunPoint(cfg)
			if s == Incast256 && dc.Queues.DroppedData == 0 {
				t.Fatal("DCTCP 256→1 incast dropped nothing; the scenario no longer stresses the buffer")
			}
			if ep.Queues.MaxLen >= dc.Queues.MaxLen {
				t.Fatalf("ExpressPass queue peak %d not below DCTCP's %d",
					ep.Queues.MaxLen, dc.Queues.MaxLen)
			}
		})
	}
}

// TestHighspeedScenariosRun sweeps the remaining high-speed scenario
// family under the checker: every link rate and the shallow-buffer
// variant must run clean for ExpressPass, and the shallow variant must
// stay drop-free where rate-scaled buffering no longer hides bursts.
func TestHighspeedScenariosRun(t *testing.T) {
	for _, s := range []Scenario{Highspeed10, Highspeed40, Highspeed100, HighspeedShallow} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			r := RunPoint(PointConfig{Protocol: ExpressPass, Scenario: s,
				Load: 0.5, Seed: 3, NumFlows: 400, Check: true})
			if r.Violations != 0 {
				t.Fatalf("invariant checker reported %d violations:\n%v",
					r.Violations, r.CheckViolations)
			}
			if r.Summary.Completed != r.Summary.Flows {
				t.Fatalf("%d of %d flows completed", r.Summary.Completed, r.Summary.Flows)
			}
			if r.Queues.DroppedData != 0 {
				t.Fatalf("dropped %d data packets", r.Queues.DroppedData)
			}
		})
	}
}
