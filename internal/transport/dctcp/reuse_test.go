package dctcp

import (
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/workload"
)

// TestControlStartsOverWithItsSender: the control goes round with its
// sender record, and the factory resets all of it — Init alone leaves
// the per-window ACK and mark counts to the zero value, so a second
// life would otherwise open with the first life's counts. The three
// factories share one control type, so a reused control must also come
// back with its own factory's config and hooks.
func TestControlStartsOverWithItsSender(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  func(Config) func(*transport.Sender) transport.Control
	}{
		{"DCTCP", New},
		{"D2TCP", NewD2TCP},
		{"L2DCT", NewL2DCT},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := topology.Build(sim.NewEngine(), topology.SingleRack(3, func(topology.QueueKind) netem.Queue {
				return netem.NewREDECN(225, 20)
			}))
			cfg := DefaultConfig()
			newControl := tc.new(cfg)
			var made []*control
			var asMade []control
			d := transport.NewDriver(net, func(s *transport.Sender) transport.Control {
				c := newControl(s).(*control)
				made, asMade = append(made, c), append(asMade, *c)
				return c
			})
			// However a flow ends, leave its control mid-window: Init
			// does not touch these two counts.
			var ended []control
			d.OnFlowDone = func(s *transport.Sender) {
				c := transport.ReuseControl[control](s)
				c.w.acks, c.w.marked = c.w.acks+7, c.w.marked+3
				ended = append(ended, *c)
			}
			var started []control
			d.OnFlowStart = func(s *transport.Sender) { started = append(started, *transport.ReuseControl[control](s)) }
			// Two long flows into one port: marks, hence an alpha that
			// has moved by the time they end. The sender that finishes
			// last is the one flow 3 takes.
			d.Schedule([]workload.FlowSpec{
				{ID: 1, Src: 0, Dst: 2, Size: 4000 * pkt.MSS},
				{ID: 2, Src: 1, Dst: 2, Size: 6000 * pkt.MSS},
				{ID: 3, Src: 0, Dst: 2, Size: 3 * pkt.MSS, Start: sim.Time(150 * sim.Millisecond)},
			})
			if sum, err := d.Run(sim.Time(sim.Second)); err != nil || sum.Completed != 3 {
				t.Fatalf("run: %+v, %v", sum, err)
			}
			if len(made) != 3 || made[1] == made[0] || made[2] != made[1] {
				t.Fatalf("flow 3 should reuse flow 2's control and flow 1 have its own: %p %p %p", made[0], made[1], made[2])
			}
			if last := ended[1]; last.w.Alpha == 0 || last.w.windowEnd != 6000 {
				t.Fatalf("flow 2 left its window at %+v: too clean for the reuse to prove anything", last.w)
			}
			own := asMade[0].law
			if own == nil || own.cfg != cfg {
				t.Fatalf("the factory's controls carry %+v, want its config", own)
			}
			for i, c := range asMade {
				if c != (control{law: own}) {
					t.Fatalf("control %d came out of the factory as %+v, want only its factory's law set", i+1, c)
				}
			}
			if c := started[2]; c != (control{law: own, w: Window{cutEnd: -1}}) {
				t.Fatalf("flow 3 started with law %p and window %+v, want %p and a first flow's window", c.law, c.w, own)
			}
		})
	}
}
