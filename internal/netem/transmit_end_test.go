package netem

import (
	"fmt"
	"slices"
	"testing"

	"pase/internal/pkt"
	"pase/internal/sim"
)

// TestPortTransmitEndTies pins what a port does at the instant a
// transmission ends: whether a Send landing exactly there finds the
// line free depends only on where its event sorts against the
// transmitter's completion in the engine's (time, head, seq) order.
//
// Every case runs on a strict-priority port and on a pFabric port. At
// the tie instant the case sends a lax packet and then an urgent one,
// so the delivery order shows what the port saw: a free line sends the
// lax packet at once, a busy one holds both until the completion and
// then dequeues the urgent packet first. Packets are 1250 B at 1 Gbps
// (10 µs on the wire) over a 2 µs link, so a packet whose
// transmission starts at s lands at s+12 µs.
func TestPortTransmitEndTies(t *testing.T) {
	const us = sim.Microsecond
	type delivery struct {
		at    sim.Time
		label string
	}
	type tieCase struct {
		name string
		// run drives the port; send offers one labelled packet.
		run  func(eng *sim.Engine, pt *Port, f *tieFaults, send func(label string, urgent bool))
		want []delivery
		end  sim.Time // the clock once the run is over
	}
	at := func(d sim.Duration) sim.Time { return sim.Time(d) }
	// The two outcomes of a tie: a free line sends the lax packet at
	// once; a busy one dequeues the urgent packet first at 10 µs.
	free := []delivery{{at(12 * us), "p0"}, {at(22 * us), "lax"}, {at(32 * us), "urgent"}}
	busy := []delivery{{at(12 * us), "p0"}, {at(22 * us), "urgent"}, {at(32 * us), "lax"}}
	pair := func(send func(string, bool)) {
		send("lax", false)
		send("urgent", true)
	}
	cases := []tieCase{
		{
			// Scheduled before p0's transmission began: its seq is below
			// the completion's, so it runs first and finds the line busy.
			name: "at-before",
			run: func(eng *sim.Engine, pt *Port, _ *tieFaults, send func(string, bool)) {
				eng.At(at(10*us), func() { pair(send) })
				send("p0", false)
			},
			want: busy, end: at(32 * us),
		},
		{
			// Scheduled after: the completion runs first, the line is free.
			name: "at-after",
			run: func(eng *sim.Engine, pt *Port, _ *tieFaults, send func(string, bool)) {
				send("p0", false)
				eng.At(at(10*us), func() { pair(send) })
			},
			want: free, end: at(32 * us),
		},
		{
			// A head event wins every tie at its instant, the completion
			// included, however late it was scheduled.
			name: "athead",
			run: func(eng *sim.Engine, pt *Port, _ *tieFaults, send func(string, bool)) {
				send("p0", false)
				eng.AtHead(at(10*us), func() { pair(send) })
			},
			want: busy, end: at(32 * us),
		},
		{
			// Scheduled mid-run at the tie instant, by an event that ran
			// after the transmission began: it sorts behind.
			name: "scheduled-mid-run",
			run: func(eng *sim.Engine, pt *Port, _ *tieFaults, send func(string, bool)) {
				send("p0", false)
				eng.At(at(4*us), func() { eng.At(at(10*us), func() { pair(send) }) })
			},
			want: free, end: at(32 * us),
		},
		{
			// An outage that ends inside the busy period: the Kick finds
			// the line still busy and changes nothing.
			name: "outage-ends-while-busy",
			run: func(eng *sim.Engine, pt *Port, f *tieFaults, send func(string, bool)) {
				send("p0", false)
				eng.At(at(2*us), func() { f.blocked = true })
				eng.At(at(3*us), func() { send("lax", false) })
				eng.At(at(6*us), func() { f.blocked = false; pt.Kick() })
				eng.At(at(7*us), func() { send("urgent", true) })
			},
			want: busy, end: at(32 * us),
		},
		{
			// An outage that spans the end instant: the completion finds
			// the link blocked and leaves the packets queued; the Kick at
			// 15 µs then sends the urgent one first.
			name: "outage-spans-end",
			run: func(eng *sim.Engine, pt *Port, f *tieFaults, send func(string, bool)) {
				send("p0", false)
				eng.At(at(5*us), func() { f.blocked = true })
				eng.At(at(7*us), func() { send("lax", false) })
				eng.At(at(12*us), func() { send("urgent", true) })
				eng.At(at(15*us), func() { f.blocked = false; pt.Kick() })
			},
			want: []delivery{{at(12 * us), "p0"}, {at(27 * us), "urgent"}, {at(37 * us), "lax"}},
			end:  at(37 * us),
		},
		{
			// An outage that starts and ends while the queue is empty
			// and the line idle: the Kick at the tie instant itself
			// finds nothing to send, and the pair after it a free line.
			name: "outage-idle-kick-at-end",
			run: func(eng *sim.Engine, pt *Port, f *tieFaults, send func(string, bool)) {
				send("p0", false)
				eng.At(at(5*us), func() { f.blocked = true })
				eng.At(at(10*us), func() { f.blocked = false; pt.Kick(); pair(send) })
			},
			want: free, end: at(32 * us),
		},
		{
			// The run's last packet is lost on the wire: nothing lands
			// after p0, and the run still ends when that packet's
			// transmission does.
			name: "lose-last",
			run: func(eng *sim.Engine, pt *Port, f *tieFaults, send func(string, bool)) {
				f.lose = "last"
				send("p0", false)
				send("last", false)
			},
			want: []delivery{{at(12 * us), "p0"}},
			end:  at(20 * us),
		},
		{
			// A lost packet whose completion also has work queued behind.
			name: "lose-then-queued",
			run: func(eng *sim.Engine, pt *Port, f *tieFaults, send func(string, bool)) {
				f.lose = "p0"
				send("p0", false)
				eng.At(at(4*us), func() { send("lax", false) })
			},
			want: []delivery{{at(22 * us), "lax"}},
			end:  at(22 * us),
		},
		{
			// RunUntil stops exactly at the end instant: the completion
			// at that instant has run, so a Send from outside any event
			// finds the line free.
			name: "rununtil-at-end",
			run: func(eng *sim.Engine, pt *Port, _ *tieFaults, send func(string, bool)) {
				send("p0", false)
				if err := eng.RunUntil(at(10 * us)); err != nil {
					panic(err)
				}
				pair(send)
			},
			want: free, end: at(32 * us),
		},
		{
			// RunUntil stops one nanosecond short: the line is busy.
			name: "rununtil-short",
			run: func(eng *sim.Engine, pt *Port, _ *tieFaults, send func(string, bool)) {
				send("p0", false)
				if err := eng.RunUntil(at(10*us - 1)); err != nil {
					panic(err)
				}
				pair(send)
			},
			want: busy, end: at(32 * us),
		},
		{
			// RunUntil lands on the end instant and an event is then
			// scheduled there: the completion is behind the clock, so
			// the Send from outside finds the line free, and the new
			// event finds the lax packet on the wire and queues behind.
			name: "rununtil-at-end-then-event",
			run: func(eng *sim.Engine, pt *Port, _ *tieFaults, send func(string, bool)) {
				send("p0", false)
				if err := eng.RunUntil(at(10 * us)); err != nil {
					panic(err)
				}
				eng.At(at(10*us), func() { send("urgent", true) })
				send("lax", false)
			},
			want: free, end: at(32 * us),
		},
	}
	queues := []struct {
		name string
		mk   func() Queue
		mark func(p *pkt.Packet, urgent bool)
	}{
		{"prio", func() Queue { return NewPrio(8, 64, 64) }, func(p *pkt.Packet, urgent bool) {
			p.Prio = 7
			if urgent {
				p.Prio = 0
			}
		}},
		{"pfabric", func() Queue { return NewPFabric(64) }, func(p *pkt.Packet, urgent bool) {
			p.Rank = 100
			if urgent {
				p.Rank = 1
			}
		}},
	}
	for _, q := range queues {
		for _, c := range cases {
			t.Run(q.name+"/"+c.name, func(t *testing.T) {
				eng := sim.NewEngine()
				dst := &sink{id: 2, eng: eng}
				pt := NewPort(eng, &sink{id: 1, eng: eng}, q.mk(), Gbps, 2*us)
				Connect(pt, NewPort(eng, dst, q.mk(), Gbps, 2*us))
				f := &tieFaults{}
				pt.Faults = f
				var labels []string
				send := func(label string, urgent bool) {
					p := &pkt.Packet{Flow: pkt.FlowID(len(labels)), Seq: int32(len(labels)), Size: 1250, Dst: 2}
					q.mark(p, urgent)
					labels = append(labels, label)
					f.labels = labels
					pt.Send(p)
				}
				c.run(eng, pt, f, send)
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				var got []delivery
				for i, p := range dst.got {
					got = append(got, delivery{dst.when[i], labels[p.Seq]})
				}
				if !slices.Equal(got, c.want) {
					t.Errorf("deliveries %s, want %s", fmt.Sprint(got), fmt.Sprint(c.want))
				}
				if eng.Now() != c.end {
					t.Errorf("run ended at %v, want %v", eng.Now(), c.end)
				}
			})
		}
	}
}

// tieFaults blocks the port while blocked is set and loses the packet
// labelled lose.
type tieFaults struct {
	blocked bool
	lose    string
	labels  []string
}

func (f *tieFaults) Blocked(*Port) bool { return f.blocked }
func (f *tieFaults) Lose(_ *Port, p *pkt.Packet) bool {
	return f.lose != "" && f.labels[p.Seq] == f.lose
}
