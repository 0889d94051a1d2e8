package netem

import (
	"testing"

	"pase/internal/check"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// countNode counts arrivals without retaining them.
type countNode struct{ got int }

func (*countNode) ID() pkt.NodeID               { return 0 }
func (n *countNode) Receive(*pkt.Packet, *Port) { n.got++ }

// TestPortHopAllocs pins a warmed link hop — Send, transmitter-idle
// event, arrival event, peer Receive — at zero allocations per packet.
func TestPortHopAllocs(t *testing.T) {
	eng := sim.NewEngine()
	dst := &countNode{}
	a := NewPort(eng, &countNode{}, NewDropTail(64), Gbps, 5*sim.Microsecond)
	b := NewPort(eng, dst, NewDropTail(64), Gbps, 5*sim.Microsecond)
	Connect(a, b)
	ps := make([]*pkt.Packet, 32)
	for i := range ps {
		ps[i] = &pkt.Packet{Size: pkt.MTU}
	}
	burst := func() {
		for _, p := range ps {
			a.Send(p)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
		t.Errorf("a %d-packet burst over a warm link allocates %.1f times, want 0", len(ps), allocs)
	}
	if dst.got == 0 {
		t.Fatal("nothing delivered")
	}
}

// loseAll burns every transmitted packet on the wire.
type loseAll struct{}

func (loseAll) Blocked(*Port) bool           { return false }
func (loseAll) Lose(*Port, *pkt.Packet) bool { return true }

// TestPortReleasesDeadPackets: a packet that dies at a port — rejected
// by the egress queue, or lost on the wire — goes back to the port's
// engine pool; one that the queue accepted and the link delivered does
// not, because its receiver owns it.
func TestPortReleasesDeadPackets(t *testing.T) {
	eng := sim.NewEngine()
	pool := pkt.PoolOf(eng)
	dst := &sink{id: 2, eng: eng}
	a := NewPort(eng, &sink{id: 1, eng: eng}, NewDropTail(1), Gbps, sim.Microsecond)
	b := NewPort(eng, dst, NewDropTail(1), Gbps, sim.Microsecond)
	Connect(a, b)

	sent := []*pkt.Packet{pool.Get(), pool.Get(), pool.Get()}
	for _, p := range sent {
		p.Size = pkt.MTU
		a.Send(p) // first transmits, second queues, third overflows
	}
	if !sent[2].Released() {
		t.Fatal("queue-rejected packet was not released")
	}
	if sent[0].Released() || sent[1].Released() {
		t.Fatal("an accepted packet was released while in flight")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dst.got) != 2 || dst.got[0].Released() || dst.got[1].Released() {
		t.Fatal("delivered packets belong to the receiver, not the pool")
	}

	a.Faults = loseAll{}
	p := pool.Get()
	p.Size = pkt.MTU
	a.Send(p)
	if !p.Released() {
		t.Fatal("packet lost on the wire was not released")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dst.got) != 2 {
		t.Fatal("a lost packet was delivered")
	}
	if pool.Get() != p {
		t.Fatal("the lost packet should be the next one the pool issues")
	}
}

// TestPktLiveAtPortAndHost: with a checker attached, sending a packet
// that was already released, or delivering one to a host, is a
// pkt_live violation; without one nothing is checked.
func TestPktLiveAtPortAndHost(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(1)
	hp := NewPort(eng, h, NewDropTail(8), Gbps, sim.Microsecond)
	sp := NewPort(eng, &countNode{}, NewDropTail(8), Gbps, sim.Microsecond)
	Connect(hp, sp)
	h.SetPort(hp)

	p := pkt.PoolOf(eng).Get()
	p.Size = pkt.HeaderSize
	pkt.PoolOf(eng).Put(p)

	h.Send(p) // unchecked: no report, no panic
	chk := check.New(nil)
	hp.AttachCheck(chk)
	h.Send(p)
	// Port.Send and the queue's Enqueue both see it.
	if got := chk.ByInvariant()[check.InvPktLive]; got != 2 {
		t.Fatalf("pkt_live violations after a released Send = %d, want 2", got)
	}
	h.Receive(p, hp)
	if got := chk.ByInvariant()[check.InvPktLive]; got != 3 {
		t.Fatalf("pkt_live violations after a released Receive = %d, want 3", got)
	}
	h.Send(&pkt.Packet{Size: pkt.HeaderSize})
	if got := chk.Total(); got != 3 {
		t.Fatalf("a literal packet tripped the checker: total = %d", got)
	}
}

// TestCheckedPoolRetiresPackets: on a checked engine a released packet
// is never issued again, so a holder that kept it past its release
// still holds a released packet and sending it trips pkt_live, rather
// than passing as whichever flow's packet the pool would have reissued.
func TestCheckedPoolRetiresPackets(t *testing.T) {
	eng := sim.NewEngine()
	chk := check.New(nil)
	eng.AttachCheck(chk)
	h := NewHost(1)
	hp := NewPort(eng, h, NewDropTail(8), Gbps, sim.Microsecond)
	Connect(hp, NewPort(eng, &countNode{}, NewDropTail(8), Gbps, sim.Microsecond))
	h.SetPort(hp)
	hp.AttachCheck(chk)

	pl := pkt.PoolOf(eng)
	stale := pl.Get()
	stale.Size = pkt.HeaderSize
	pl.Put(stale)
	if next := pl.Get(); next == stale {
		t.Fatal("a checked pool reissued a released packet")
	}
	h.Send(stale)
	if chk.ByInvariant()[check.InvPktLive] == 0 {
		t.Fatal("sending a released packet on a checked engine did not trip pkt_live")
	}
}
