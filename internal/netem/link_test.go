package netem

import (
	"testing"

	"pase/internal/pkt"
	"pase/internal/sim"
)

// sink is a Node that records arrivals with timestamps.
type sink struct {
	id   pkt.NodeID
	eng  *sim.Engine
	got  []*pkt.Packet
	when []sim.Time
}

func (s *sink) ID() pkt.NodeID { return s.id }
func (s *sink) Receive(p *pkt.Packet, _ *Port) {
	s.got = append(s.got, p)
	s.when = append(s.when, s.eng.Now())
}

func pipe(eng *sim.Engine, rate BitRate, delay sim.Duration) (*Port, *sink) {
	dst := &sink{id: 2, eng: eng}
	src := &sink{id: 1, eng: eng}
	a := NewPort(eng, src, NewDropTail(1000), rate, delay)
	b := NewPort(eng, dst, NewDropTail(1000), rate, delay)
	Connect(a, b)
	return a, dst
}

func TestSerializeMath(t *testing.T) {
	// 1500B at 1Gbps = 12µs; at 10Gbps = 1.2µs.
	if d := Gbps.Serialize(1500); d != 12*sim.Microsecond {
		t.Fatalf("1Gbps serialize = %v, want 12µs", d)
	}
	if d := (10 * Gbps).Serialize(1500); d != 1200*sim.Nanosecond {
		t.Fatalf("10Gbps serialize = %v, want 1.2µs", d)
	}
}

func TestLinkDeliveryTiming(t *testing.T) {
	eng := sim.NewEngine()
	port, dst := pipe(eng, Gbps, 50*sim.Microsecond)
	p := &pkt.Packet{Size: 1500, Dst: 2}
	port.Send(p)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dst.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(dst.got))
	}
	// 12µs serialization + 50µs propagation.
	want := sim.Time(62 * sim.Microsecond)
	if dst.when[0] != want {
		t.Fatalf("arrival at %v, want %v", dst.when[0], want)
	}
}

func TestLinkBackToBackPackets(t *testing.T) {
	eng := sim.NewEngine()
	port, dst := pipe(eng, Gbps, 10*sim.Microsecond)
	for i := 0; i < 3; i++ {
		port.Send(&pkt.Packet{Size: 1500, Seq: int32(i), Dst: 2})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dst.got) != 3 {
		t.Fatalf("delivered %d, want 3", len(dst.got))
	}
	// Packet i arrives at (i+1)*12µs + 10µs.
	for i, at := range dst.when {
		want := sim.Time(sim.Duration(i+1)*12*sim.Microsecond + 10*sim.Microsecond)
		if at != want {
			t.Fatalf("packet %d at %v, want %v", i, at, want)
		}
		if dst.got[i].Seq != int32(i) {
			t.Fatalf("reordered: index %d has seq %d", i, dst.got[i].Seq)
		}
	}
	if u := float64(port.BusyTime()) / float64(eng.Now()); u < 0.77 || u > 0.79 {
		// 36µs busy over 46µs total ≈ 0.7826
		t.Fatalf("utilization = %v, want ≈0.78", u)
	}
}

func TestLinkIdleThenResume(t *testing.T) {
	eng := sim.NewEngine()
	port, dst := pipe(eng, Gbps, 0)
	port.Send(&pkt.Packet{Size: 1500, Dst: 2})
	eng.Schedule(100*sim.Microsecond, func() {
		port.Send(&pkt.Packet{Size: 1500, Dst: 2})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dst.got) != 2 {
		t.Fatalf("delivered %d, want 2", len(dst.got))
	}
	if dst.when[1] != sim.Time(112*sim.Microsecond) {
		t.Fatalf("second arrival at %v, want 112µs", dst.when[1])
	}
}

func TestSwitchRouting(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(100, "sw", -1, 2)
	dstA := &sink{id: 1, eng: eng}
	dstB := &sink{id: 2, eng: eng}

	mkLink := func(dst *sink) {
		sp := NewPort(eng, sw, NewDropTail(100), Gbps, sim.Microsecond)
		dp := NewPort(eng, dst, NewDropTail(100), Gbps, sim.Microsecond)
		Connect(sp, dp)
		sw.AddPort(sp)
	}
	mkLink(dstA)
	mkLink(dstB)
	sw.SetDown(1, 2, 1)

	sw.Receive(&pkt.Packet{Size: 100, Dst: 2}, nil)
	sw.Receive(&pkt.Packet{Size: 100, Dst: 1}, nil)
	sw.Receive(&pkt.Packet{Size: 100, Dst: 2}, nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dstA.got) != 1 || len(dstB.got) != 2 {
		t.Fatalf("a=%d b=%d, want 1 and 2", len(dstA.got), len(dstB.got))
	}
}

func TestSwitchNoRoutePanics(t *testing.T) {
	sw := NewSwitch(100, "sw", -1, 0)
	defer func() {
		if got, want := recover(), "netem: sw has no route to node 42"; got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	sw.Receive(&pkt.Packet{Dst: 42}, nil)
}

// TestSwitchRangeEdges walks the structural route's boundaries: hosts
// [10, 16) sit two to a port behind ports 0-2, and everything else —
// the id just below the range, the one just past it, a negative id —
// takes the up port, then FlowRoute, then nothing.
func TestSwitchRangeEdges(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(100, "agg", 3, 5)
	for i := 0; i < 5; i++ {
		sp := NewPort(eng, sw, NewDropTail(4), Gbps, sim.Microsecond)
		Connect(sp, NewPort(eng, &sink{eng: eng}, NewDropTail(4), Gbps, sim.Microsecond))
		sw.AddPort(sp)
	}
	sw.SetDown(10, 6, 2)
	const none = -1
	portOf := func(dst pkt.NodeID) int {
		if i, ok := sw.route(dst, 7); ok {
			return i
		}
		return none
	}
	check := func(stage string, want map[pkt.NodeID]int) {
		t.Helper()
		for dst, port := range want {
			if got := portOf(dst); got != port {
				t.Errorf("%s: dst %d leaves by port %d, want %d", stage, dst, got, port)
			}
		}
	}
	below := map[pkt.NodeID]int{10: 0, 11: 0, 12: 1, 13: 1, 14: 2, 15: 2}
	check("no up, no FlowRoute", below)
	check("no up, no FlowRoute", map[pkt.NodeID]int{9: none, 16: none, 0: none, -1: none})

	sw.FlowRoute = func(dst pkt.NodeID, flow pkt.FlowID) int { return 3 + int(flow)%2 }
	check("FlowRoute", below)
	check("FlowRoute", map[pkt.NodeID]int{9: 4, 16: 4, 0: 4})

	sw.SetUp(3)
	check("up", below)
	check("up", map[pkt.NodeID]int{9: 3, 16: 3, 0: 3, -1: 3})

	if got := sw.Name(); got != "agg3" {
		t.Errorf("Name() = %q, want agg3", got)
	}
	if got := sw.Port(3).Name(); got != "agg3->node0" {
		t.Errorf("port name %q, want agg3->node0", got)
	}
}

func TestHopLoopGuard(t *testing.T) {
	p := &pkt.Packet{Dst: 1, Hops: 100}
	sw := NewSwitch(5, "sw", -1, 0)
	sw.SetDown(1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected loop-guard panic")
		}
	}()
	sw.Receive(p, nil)
}

func TestBitRateString(t *testing.T) {
	if Gbps.String() != "1Gbps" || (10*Gbps).String() != "10Gbps" || (100*Mbps).String() != "100Mbps" {
		t.Fatalf("got %s %s %s", Gbps, 10*Gbps, 100*Mbps)
	}
}
