package transport

import (
	"testing"
	"testing/quick"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/workload"
)

// nopControl is a minimal protocol for white-box sender tests.
type nopControl struct {
	initCwnd float64
	minRTO   sim.Duration
	timeouts int
}

func (c *nopControl) Init(s *Sender) {
	if c.initCwnd == 0 {
		c.initCwnd = 4
	}
	if c.minRTO == 0 {
		c.minRTO = 10 * sim.Millisecond
	}
	s.Cwnd = c.initCwnd
}
func (c *nopControl) OnAck(*Sender, *pkt.Packet, int32, sim.Duration) {}
func (c *nopControl) OnLoss(*Sender)                                  {}
func (c *nopControl) OnTimeout(*Sender) bool                          { c.timeouts++; return false }
func (c *nopControl) FillData(s *Sender, p *pkt.Packet)               { p.ECT = true }
func (c *nopControl) MinRTO(*Sender) sim.Duration                     { return c.minRTO }

func testRig(t *testing.T) (*topology.Network, *Driver, *nopControl) {
	t.Helper()
	return testRigOn(t, sim.NewEngine())
}

// testRigOn is testRig on a given engine, for one with a checker attached.
func testRigOn(t *testing.T, eng *sim.Engine) (*topology.Network, *Driver, *nopControl) {
	t.Helper()
	net := topology.Build(eng, topology.SingleRack(2, func(topology.QueueKind) netem.Queue {
		return netem.NewDropTail(1000)
	}))
	ctrl := &nopControl{}
	d := NewDriver(net, func(*Sender) Control { return ctrl })
	return net, d, ctrl
}

func start(t *testing.T, d *Driver, size int64) *Sender {
	t.Helper()
	d.remaining.Add(1) // accounted manually since we bypass Schedule
	return d.Stack(0).StartFlow(workload.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: size, Start: 0})
}

func TestWindowLimitsInflight(t *testing.T) {
	net, d, _ := testRig(t)
	s := start(t, d, 100*pkt.MSS)
	if s.Inflight() != 4 {
		t.Fatalf("inflight = %d, want initial window 4", s.Inflight())
	}
	if err := net.Eng.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !s.Done {
		t.Fatal("flow should complete")
	}
}

func TestHoldBlocksTransmission(t *testing.T) {
	net, d, _ := testRig(t)
	d.remaining.Add(1)
	st := d.Stack(0)
	// Install a control that holds in Init.
	st.NewControl = func(*Sender) Control { return &holdControl{} }
	s := st.StartFlow(workload.FlowSpec{ID: 2, Src: 0, Dst: 1, Size: 10 * pkt.MSS, Start: 0})
	if s.Inflight() != 0 {
		t.Fatalf("held sender transmitted %d packets", s.Inflight())
	}
	s.Hold = false
	s.Kick()
	if s.Inflight() == 0 {
		t.Fatal("kick after unhold should transmit")
	}
	_ = net
}

type holdControl struct{ nopControl }

func (c *holdControl) Init(s *Sender) {
	c.nopControl.Init(s)
	s.Hold = true
}

func TestAbsorbProbeAckLost(t *testing.T) {
	_, d, _ := testRig(t)
	s := start(t, d, 10*pkt.MSS)
	// Pretend the receiver reports segment 0 missing.
	before := s.Retx
	s.AbsorbProbeAck(&pkt.Packet{Type: pkt.ProbeAck, SackSeq: 0, Have: false, CumAck: 0})
	// Segment 0 was inflight; it must now be queued and retransmitted.
	if s.Retx != before+1 {
		t.Fatalf("lost probe answer should trigger retransmission (retx=%d)", s.Retx)
	}
}

func TestAbsorbProbeAckHave(t *testing.T) {
	_, d, _ := testRig(t)
	s := start(t, d, 10*pkt.MSS)
	s.AbsorbProbeAck(&pkt.Packet{Type: pkt.ProbeAck, SackSeq: 0, Have: true, CumAck: 1})
	if s.CumAck() != 1 {
		t.Fatalf("cumAck = %d, want 1 after Have probe-ack", s.CumAck())
	}
	if s.Retx != 0 {
		t.Fatal("no retransmission when the receiver has the segment")
	}
}

func TestAbsorbProbeAckCompletes(t *testing.T) {
	_, d, _ := testRig(t)
	s := start(t, d, 2*pkt.MSS) // window 4 >= 2 segments, all inflight
	s.AbsorbProbeAck(&pkt.Packet{Type: pkt.ProbeAck, SackSeq: 1, Have: true, CumAck: 2})
	if !s.Done {
		t.Fatal("probe-ack covering everything should complete the flow")
	}
}

func TestRTOBackoffDoubles(t *testing.T) {
	_, d, ctrl := testRig(t)
	_ = ctrl
	s := start(t, d, 10*pkt.MSS)
	base := s.RTO()
	s.backoff = 3
	if got := s.RTO(); got != base*8 {
		t.Fatalf("backoff RTO = %v, want %v", got, base*8)
	}
	s.backoff = 100 // silly: must clamp
	if got := s.RTO(); got != AbsMaxRTO {
		t.Fatalf("RTO = %v, want clamp at %v", got, AbsMaxRTO)
	}
}

func TestFixedRTOIgnoresBackoff(t *testing.T) {
	_, d, _ := testRig(t)
	s := start(t, d, 10*pkt.MSS)
	s.FixedRTO = sim.Millisecond
	s.backoff = 5
	if got := s.RTO(); got != sim.Millisecond {
		t.Fatalf("fixed RTO = %v, want 1ms", got)
	}
}

func TestMarkLostOnlyInflight(t *testing.T) {
	_, d, _ := testRig(t)
	s := start(t, d, 10*pkt.MSS)
	s.MarkLost(0)
	if s.Inflight() != 3 {
		t.Fatalf("inflight = %d, want 3 after one loss", s.Inflight())
	}
	s.MarkLost(0) // already lost: no double count
	if s.Inflight() != 3 {
		t.Fatal("double MarkLost changed inflight")
	}
	s.MarkLost(9) // unsent
	s.MarkLost(-1)
	s.MarkLost(99)
	if s.Inflight() != 3 {
		t.Fatal("MarkLost on non-inflight segments must be a no-op")
	}
}

func TestTimeoutTriggersGoBackN(t *testing.T) {
	net, d, ctrl := testRig(t)
	// Break the link so nothing is delivered: swap the host handler.
	net.Host(1).Handler = func(*pkt.Packet) {}
	s := start(t, d, 10*pkt.MSS)
	if err := net.Eng.RunUntil(sim.Time(25 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if ctrl.timeouts == 0 || s.Timeouts == 0 {
		t.Fatal("timeout should have fired")
	}
	if s.Retx == 0 {
		t.Fatal("go-back-N should retransmit")
	}
}

func TestPacedModeRespectsRate(t *testing.T) {
	net, d, _ := testRig(t)
	d.remaining.Add(1)
	st := d.Stack(0)
	st.NewControl = func(*Sender) Control { return &pacedControl{} }
	var arrivals []sim.Time
	inner := net.Host(1).Handler
	net.Host(1).Handler = func(p *pkt.Packet) {
		if p.Type == pkt.Data {
			arrivals = append(arrivals, net.Eng.Now())
		}
		inner(p)
	}
	st.StartFlow(workload.FlowSpec{ID: 3, Src: 0, Dst: 1, Size: 10 * pkt.MSS, Start: 0})
	if err := net.Eng.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) < 10 {
		t.Fatalf("only %d data packets arrived", len(arrivals))
	}
	// 100 Mbps pacing of 1500B packets = 120µs spacing.
	for i := 1; i < 10; i++ {
		gap := arrivals[i].Sub(arrivals[i-1])
		if gap < 110*sim.Microsecond {
			t.Fatalf("pacing violated: gap %v", gap)
		}
	}
}

type pacedControl struct{ nopControl }

func (c *pacedControl) Init(s *Sender) {
	c.nopControl.Init(s)
	s.Paced = true
	s.SetRate(100 * netem.Mbps)
}

func TestAbortRecordsIncomplete(t *testing.T) {
	net, d, _ := testRig(t)
	s := start(t, d, 100*pkt.MSS)
	s.Abort()
	if !s.Done || !s.Aborted {
		t.Fatal("abort should mark the sender done+aborted")
	}
	recs := d.Collector.Records()
	if len(recs) != 1 || recs[0].Done {
		t.Fatalf("aborted flow should be recorded incomplete: %+v", recs)
	}
	// Idempotent.
	s.Abort()
	if len(d.Collector.Records()) != 1 {
		t.Fatal("double abort double-recorded")
	}
	_ = net
}

// Property: under arbitrary loss patterns injected via MarkLost and a
// lossy queue, every flow still completes (reliability invariant).
func TestReliabilityUnderRandomLoss(t *testing.T) {
	f := func(seed uint64, qsizeRaw uint8) bool {
		qsize := int(qsizeRaw%20) + 3
		eng := sim.NewEngine()
		net := topology.Build(eng, topology.SingleRack(4, func(topology.QueueKind) netem.Queue {
			return netem.NewDropTail(qsize)
		}))
		ctrl := &nopControl{initCwnd: 12, minRTO: 5 * sim.Millisecond}
		d := NewDriver(net, func(*Sender) Control { return ctrl })
		r := sim.NewRand(seed)
		var flows []workload.FlowSpec
		for i := 0; i < 8; i++ {
			flows = append(flows, workload.FlowSpec{
				ID:    pkt.FlowID(i + 1),
				Src:   pkt.NodeID(i % 3),
				Dst:   3,
				Size:  r.UniformInt(500, 120_000),
				Start: sim.Time(r.Int63n(int64(2 * sim.Millisecond))),
			})
		}
		d.Schedule(flows)
		sum, err := d.Run(sim.Time(60 * sim.Second))
		if err != nil {
			return false
		}
		return sum.Completed == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRecordGrowsWithWhatWasSent: the per-segment record covers
// the segments sent so far, not the flow — a 1 GiB background flow
// starts with segStateInit records rather than 735 440 — and a flow
// that outgrows its record completes exactly like one that never does,
// retransmissions across the growth boundary included.
func TestSegmentRecordGrowsWithWhatWasSent(t *testing.T) {
	_, d, _ := testRig(t)
	if s := start(t, d, 1<<30); len(s.state) != segStateInit || s.Segs < 700_000 {
		t.Fatalf("a %d-segment flow starts with %d segment records, want %d", s.Segs, len(s.state), segStateInit)
	}

	const segs = 3*segStateInit + 100
	net, d, ctrl := testRig(t)
	ctrl.initCwnd = 64
	// Lose one full window straddling the first growth step.
	lose, lost := map[int32]bool{}, map[int32]bool{}
	for seq := int32(segStateInit - 32); seq < segStateInit+32; seq++ {
		lose[seq], lost[seq] = true, true
	}
	net.Links[0].Port.Faults = loseOnce(lose)
	s := start(t, d, segs*pkt.MSS)
	if len(s.state) != segStateInit {
		t.Fatalf("record starts at %d, want %d", len(s.state), segStateInit)
	}
	if err := net.Eng.RunUntil(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !s.Done || s.AckedBytes() != segs*pkt.MSS {
		t.Fatalf("done=%v with %d of %d bytes acknowledged", s.Done, s.AckedBytes(), segs*pkt.MSS)
	}
	if s.Retx < len(lost) || len(s.state) != segs {
		t.Fatalf("%d retransmissions (want >= %d), %d segment records (want %d)", s.Retx, len(lost), len(s.state), segs)
	}
	retx := 0
	for seq := range s.state {
		if s.seg(int32(seq)) != segAcked {
			t.Fatalf("segment %d ended in state %v", seq, s.seg(int32(seq)))
		}
		if s.state[seq]&segRetx != 0 {
			retx++
		} else if lost[int32(seq)] {
			t.Fatalf("segment %d was lost in flight but is not flagged retransmitted", seq)
		}
	}
	if retx == 0 || retx > s.Retx {
		t.Fatalf("%d segments flagged retransmitted after %d retransmissions", retx, s.Retx)
	}
}

// loseOnce drops the first transmission of each listed data segment.
type loseOnce map[int32]bool

func (loseOnce) Blocked(*netem.Port) bool { return false }
func (l loseOnce) Lose(_ *netem.Port, p *pkt.Packet) bool {
	if p.Type != pkt.Data || !l[p.Seq] {
		return false
	}
	delete(l, p.Seq)
	return true
}
