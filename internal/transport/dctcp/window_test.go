package dctcp_test

import (
	"reflect"
	"testing"

	"pase/internal/core/arbitration"
	"pase/internal/core/endhost"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
	"pase/internal/workload"
)

// lawRecorder wraps a control that keeps its ECN state in a field
// w dctcp.Window. It counts the ACKs and marks the control sees,
// recomputes alpha at every refresh from those counts, and notes every
// cut: an echoed ACK that lowered the window or closed a new window to
// cuts.
type lawRecorder struct {
	transport.Control
	t *testing.T

	acks, marked  int
	windowEnd     int32
	alpha         float64
	cutEdge       int32 // the window edge at the last cut, -1 before any
	refreshes     int
	cuts, samples int
}

// window reads the wrapped control's dctcp.Window.
func (r *lawRecorder) window() (alpha float64, cutEnd int64) {
	w := reflect.ValueOf(r.Control).Elem().FieldByName("w")
	return w.FieldByName("Alpha").Float(), w.FieldByName("cutEnd").Int()
}

func (r *lawRecorder) OnAck(s *transport.Sender, ack *pkt.Packet, newly int32, rtt sim.Duration) {
	cwnd, edge := s.Cwnd, s.NextWindowEdge()
	_, cutEnd := r.window()
	refresh := s.CumAck() > r.windowEnd
	r.acks++
	if ack.Echo {
		r.marked++
	}
	r.Control.OnAck(s, ack, newly, rtt)
	alpha, nowCutEnd := r.window()
	if refresh {
		f := float64(r.marked) / float64(r.acks)
		r.alpha = (1-dctcp.Gain)*r.alpha + dctcp.Gain*f
		r.acks, r.marked, r.windowEnd = 0, 0, edge
		r.refreshes++
		if f > 0 {
			r.samples++
		}
		if alpha != r.alpha {
			r.t.Fatalf("refresh %d at cumAck %d: alpha %v, the EWMA of the recorded marks gives %v",
				r.refreshes, s.CumAck(), alpha, r.alpha)
		}
	}
	if ack.Echo && (s.Cwnd < cwnd || nowCutEnd != cutEnd) {
		if s.CumAck() <= r.cutEdge {
			r.t.Fatalf("cut %d at cumAck %d falls within the window of data cut up to %d",
				r.cuts+1, s.CumAck(), r.cutEdge)
		}
		r.cutEdge = edge
		r.cuts++
	}
}

func (r *lawRecorder) OnProbeAck(s *transport.Sender, p *pkt.Packet) {
	r.Control.(transport.ProbeAckHandler).OnProbeAck(s, p)
}

// TestWindowCutsOncePerWindow runs one long flow through a RED-ECN
// queue under DCTCP and under PASE's end host, both of which keep
// their ECN state in a dctcp.Window: no two cuts may fall within one
// window of data, and alpha after each refresh must be the EWMA of the
// marks the control actually saw.
func TestWindowCutsOncePerWindow(t *testing.T) {
	for _, arm := range []struct {
		name   string
		attach func(*transport.Driver, *topology.Network) func(*transport.Sender) transport.Control
	}{
		{"DCTCP", func(*transport.Driver, *topology.Network) func(*transport.Sender) transport.Control {
			return dctcp.New(dctcp.DefaultConfig())
		}},
		// A lone PASE flow pinned at Rref × RTT builds no queue to
		// mark, so this arm is the PASE-DCTCP ablation (Figure 13a):
		// PASE's end host growing by DCTCP's law in the top queue.
		{"PASE-DCTCP", func(d *transport.Driver, net *topology.Network) func(*transport.Sender) transport.Control {
			cfg := endhost.DefaultConfig()
			cfg.UseRefRate = false
			return endhost.Attach(d, arbitration.NewSystem(net, arbitration.DefaultParams()), cfg).NewControl
		}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			net := topology.Build(sim.NewEngine(), topology.SingleRack(2, func(topology.QueueKind) netem.Queue {
				return netem.NewREDECN(225, 20)
			}))
			d := transport.NewDriver(net, nil)
			inner := arm.attach(d, net)
			var rec *lawRecorder
			for _, st := range d.Stacks {
				st.NewControl = func(s *transport.Sender) transport.Control {
					rec = &lawRecorder{Control: inner(s), t: t, cutEdge: -1}
					return rec
				}
			}
			d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: 5_000_000}})
			if sum, err := d.Run(sim.Time(sim.Second)); err != nil || sum.Completed != 1 {
				t.Fatalf("run: %+v, %v", sum, err)
			}
			// The checks above only mean something if the flow was cut
			// repeatedly and alpha moved.
			if rec.cuts < 10 || rec.samples < 10 || rec.alpha == 0 {
				t.Fatalf("%d cuts, %d refreshes (%d with marks), final alpha %v: too few marks to test the law",
					rec.cuts, rec.refreshes, rec.samples, rec.alpha)
			}
			t.Logf("%d cuts, %d refreshes (%d with marks), final alpha %.4f", rec.cuts, rec.refreshes, rec.samples, rec.alpha)
		})
	}
}
