package experiments

import (
	"testing"

	"pase/internal/netem"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
	"pase/internal/transport/expresspass"
	"pase/internal/transport/pdq"
	"pase/internal/transport/pfabric"
	"pase/internal/workload"
)

// TestTable3 pins the paper's Table 3 where the code keeps it: the
// switch queue queueFactory builds per protocol, and the initial
// window and RTO floor of a fresh sender made by the constructors
// RunPoint calls. PASE's end-host RTO floors are pinned in
// endhost's TestMinRTOPerQueue.
func TestTable3(t *testing.T) {
	sp, _ := lookupScenario(LeftRight)
	for _, p := range Protocols {
		if p == ExpressPass {
			continue // not in Table 3
		}
		q := queueFactory(p, sp, PASENumQueues, nil)(topology.QueueKind(0))
		var ok bool
		switch p {
		case PFabric:
			pf, is := q.(*netem.PFabric)
			ok = is && pf.Limit == 76
		case PDQ:
			dt, is := q.(*netem.REDECN) // drop-tail: a threshold at the limit never marks
			ok = is && dt.Limit == 225 && dt.K >= dt.Limit
		case PASE:
			pr, is := q.(*netem.Prio)
			ok = is && pr.Bands == 8 && pr.Limit == 500 && pr.K == 65 && !pr.PerBand
		default:
			red, is := q.(*netem.REDECN)
			ok = is && red.Limit == 225 && red.K == 65
		}
		if !ok {
			t.Errorf("%s: switch queue %T does not hold Table 3's sizes", p, q)
		}
	}

	const ms = sim.Millisecond
	for _, c := range []struct {
		name   string
		attach func(*transport.Driver)
		cwnd   float64 // 0: a rate-paced protocol, no window
		rto    sim.Duration
		fixed  bool // rto is a fixed timeout, not a floor
	}{
		{"DCTCP", controls(dctcp.New(dctcp.DefaultConfig())), 10, 10 * ms, false},
		{"D2TCP", controls(dctcp.NewD2TCP(dctcp.DefaultConfig())), 10, 10 * ms, false},
		{"L2DCT", controls(dctcp.NewL2DCT(dctcp.DefaultConfig())), 10, 10 * ms, false},
		{"pFabric", controls(pfabric.New()), 38, ms, true},
		{"PDQ", func(d *transport.Driver) { pdq.Attach(d, false) }, 0, 10 * ms, false},
		{"ExpressPass", func(d *transport.Driver) { expresspass.Attach(d, 1) }, 0, 10 * ms, false},
	} {
		net := topology.Build(sim.NewEngine(), topology.SingleRack(2, func(topology.QueueKind) netem.Queue {
			return netem.NewDropTail(225)
		}))
		d := transport.NewDriver(net, nil)
		c.attach(d)
		s := d.Stack(0).StartFlow(workload.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 1 << 20})
		if c.cwnd != 0 && s.Cwnd != c.cwnd {
			t.Errorf("%s: initial window %v segments, want %v", c.name, s.Cwnd, c.cwnd)
		}
		// A fresh sender has no RTT sample, so its RTO is the floor.
		if got := s.RTO(); got != c.rto || (s.FixedRTO != 0) != c.fixed {
			t.Errorf("%s: RTO %v (fixed %v), want %v (fixed %v)", c.name, got, s.FixedRTO != 0, c.rto, c.fixed)
		}
	}
}

// controls installs one control factory on every stack, as RunPoint
// does for the window-based protocols.
func controls(f func(*transport.Sender) transport.Control) func(*transport.Driver) {
	return func(d *transport.Driver) {
		for _, st := range d.Stacks {
			st.NewControl = f
		}
	}
}
