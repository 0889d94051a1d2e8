package netem

import (
	"testing"

	"pase/internal/pkt"
	"pase/internal/sim"
)

func benchPackets(n int) []*pkt.Packet {
	ps := make([]*pkt.Packet, n)
	for i := range ps {
		ps[i] = &pkt.Packet{
			Flow: pkt.FlowID(i % 16), Seq: int32(i),
			Prio: int8(i % 8), Rank: int64(i % 977),
			Size: pkt.MTU, Type: pkt.Data, ECT: true,
		}
	}
	return ps
}

func benchQueue(b *testing.B, q Queue) {
	b.Helper()
	ps := benchPackets(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ps[i%len(ps)]
		p.CE = false
		q.Enqueue(p)
		if i%2 == 1 {
			q.Dequeue()
		}
	}
}

func BenchmarkDropTail(b *testing.B) { benchQueue(b, NewDropTail(225)) }
func BenchmarkREDECN(b *testing.B)   { benchQueue(b, NewREDECN(225, 65)) }
func BenchmarkPrio8(b *testing.B)    { benchQueue(b, NewPrio(8, 500, 65)) }
func BenchmarkPFabric(b *testing.B)  { benchQueue(b, NewPFabric(76)) }

// chainRelay forwards every arrival out of its one egress port.
type chainRelay struct{ out *Port }

func (*chainRelay) ID() pkt.NodeID                   { return 0 }
func (r *chainRelay) Receive(p *pkt.Packet, _ *Port) { r.out.Send(p) }

// chainSource sends one packet of a ring per firing and re-arms itself
// until n have gone.
type chainSource struct {
	out  *Port
	gap  sim.Duration
	ring []*pkt.Packet
	n    int
}

func (s *chainSource) Fire(any) {
	s.out.Send(s.ring[s.n%len(s.ring)])
	if s.n--; s.n > 0 {
		s.out.Engine().ScheduleAction(s.gap, s, nil)
	}
}

// BenchmarkPortChain drives MTU packets across a chain of three idle
// 10 Gbps ports, one every 1.5 µs: the line is busy 1.2 µs of each
// gap, close to fig-9a's 0.8 load, so every packet finds its egress
// queue empty at each hop. It reports the engine events a packet costs
// beside ns/op: its source firing plus one arrival per hop, and one
// transmit completion per hop that some packet waited for.
func BenchmarkPortChain(b *testing.B) {
	eng := sim.NewEngine()
	const rate, delay = 10 * Gbps, sim.Microsecond
	dst := &countNode{}
	next := Node(dst)
	var first *Port
	for hop := 0; hop < 3; hop++ {
		out := NewPort(eng, &countNode{}, NewDropTail(64), rate, delay)
		Connect(out, NewPort(eng, next, NewDropTail(64), rate, delay))
		first, next = out, &chainRelay{out: out}
	}
	src := &chainSource{out: first, gap: 1500 * sim.Nanosecond, ring: benchPackets(64), n: b.N}
	for _, p := range src.ring {
		p.Size = pkt.MTU
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.ScheduleAction(0, src, nil)
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if dst.got != b.N {
		b.Fatalf("%d of %d packets delivered", dst.got, b.N)
	}
	b.ReportMetric(float64(eng.Executed)/float64(b.N), "events/pkt")
}
