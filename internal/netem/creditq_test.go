package netem

import (
	"testing"

	"pase/internal/check"
	"pase/internal/pkt"
	"pase/internal/sim"
)

func creditPkt(seq int32) *pkt.Packet {
	return &pkt.Packet{Flow: 1, Seq: seq, Type: pkt.Credit, Size: pkt.CreditSize}
}

func ctrlPkt(seq int32) *pkt.Packet {
	return &pkt.Packet{Flow: 1, Seq: seq, Type: pkt.Ack, Size: pkt.HeaderSize}
}

// The three classes bound independently and drop beyond their limits;
// data drops are counted in the data counters, credit drops in the
// credit counters.
func TestCreditQueueClassBounds(t *testing.T) {
	q := NewCreditQueue(2, 1, 1)
	var now sim.Time
	q.BindClock(func() sim.Time { return now })
	for i := int32(0); i < 4; i++ {
		q.Enqueue(mkpkt(1, i, 0, 0))
	}
	for i := int32(0); i < 3; i++ {
		q.Enqueue(creditPkt(i))
		q.Enqueue(ctrlPkt(i))
	}
	if q.data.len() != 2 || q.credit.len() != 1 {
		t.Fatalf("data=%d credit=%d, want 2/1", q.data.len(), q.credit.len())
	}
	st := q.Stats()
	if st.DroppedData != 2 || st.DroppedCredit != 2 {
		t.Fatalf("droppedData=%d droppedCredit=%d, want 2/2", st.DroppedData, st.DroppedCredit)
	}
	if st.EnqueuedCredit != 1 {
		t.Fatalf("enqueuedCredit=%d, want 1", st.EnqueuedCredit)
	}
	// 2 data + 1 credit + 1 ctrl accepted.
	if st.Enqueued != 4 || st.Dropped != 6 {
		t.Fatalf("enqueued=%d dropped=%d, want 4/6", st.Enqueued, st.Dropped)
	}
}

// Service order: an eligible credit first, then ctrl, then data; a
// just-released credit makes the next one ineligible for one Gap.
func TestCreditQueueServiceOrder(t *testing.T) {
	q := NewCreditQueue(10, 10, 10)
	q.Gap = 10 * sim.Microsecond
	var now sim.Time
	q.BindClock(func() sim.Time { return now })
	q.AttachCheck("credit-test", check.NewStrict(func() int64 { return int64(now) }))

	q.Enqueue(mkpkt(1, 0, 0, 0))
	q.Enqueue(ctrlPkt(0))
	q.Enqueue(creditPkt(0))
	q.Enqueue(creditPkt(1))

	if p := q.Dequeue(); p.Type != pkt.Credit || p.Seq != 0 {
		t.Fatalf("first dequeue = %v, want credit 0", p)
	}
	// Second credit is paced out; ctrl goes next, then data.
	if p := q.Dequeue(); p.Type != pkt.Ack {
		t.Fatalf("second dequeue = %v, want ctrl", p)
	}
	if p := q.Dequeue(); p.Type != pkt.Data {
		t.Fatalf("third dequeue = %v, want data", p)
	}
	if p := q.Dequeue(); p != nil {
		t.Fatalf("credit released before Gap elapsed: %v", p)
	}
	now = now.Add(q.Gap)
	if p := q.Dequeue(); p == nil || p.Type != pkt.Credit || p.Seq != 1 {
		t.Fatalf("eligible credit not released: %v", p)
	}
	q.CheckConservation()
}

// End to end over a real port: a burst of credits must leave the port
// spaced at least one Gap apart, and the queue's self-armed kick timer
// must resume the idle transmitter without any further Send.
func TestCreditQueuePacesOnPort(t *testing.T) {
	eng := sim.NewEngine()
	q := NewCreditQueue(10, 10, 10)
	a := NewHost(0)
	b := NewHost(1)
	pa := NewPort(eng, a, q, Gbps, sim.Microsecond)
	pb := NewPort(eng, b, NewDropTail(16), Gbps, sim.Microsecond)
	Connect(pa, pb)
	a.SetPort(pa)
	b.SetPort(pb)
	q.Bind(pa)

	wantGap := Gbps.Serialize(pkt.MTU + pkt.CreditSize)
	if q.Gap != wantGap {
		t.Fatalf("bound gap = %v, want %v", q.Gap, wantGap)
	}

	var arrivals []sim.Time
	b.Handler = func(p *pkt.Packet) {
		if p.Type == pkt.Credit {
			arrivals = append(arrivals, eng.Now())
		}
	}
	for i := int32(0); i < 5; i++ {
		a.Send(creditPkt(i))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 5 {
		t.Fatalf("delivered %d credits, want 5", len(arrivals))
	}
	for i := 1; i < len(arrivals); i++ {
		if got := arrivals[i].Sub(arrivals[i-1]); got < wantGap {
			t.Fatalf("credits %d and %d spaced %v < gap %v", i-1, i, got, wantGap)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue still holds %d packets", q.Len())
	}
	q.CheckConservation()
}

// Data rides through unpaced even while credits wait out their gap.
func TestCreditQueueDataUnpaced(t *testing.T) {
	eng := sim.NewEngine()
	q := NewCreditQueue(10, 10, 10)
	a := NewHost(0)
	b := NewHost(1)
	pa := NewPort(eng, a, q, Gbps, sim.Microsecond)
	pb := NewPort(eng, b, NewDropTail(32), Gbps, sim.Microsecond)
	Connect(pa, pb)
	a.SetPort(pa)
	b.SetPort(pb)
	q.Bind(pa)

	var data, credits int
	b.Handler = func(p *pkt.Packet) {
		if p.Type == pkt.Credit {
			credits++
		} else {
			data++
		}
	}
	for i := int32(0); i < 3; i++ {
		a.Send(creditPkt(i))
		a.Send(mkpkt(1, i, 0, 0))
		a.Send(mkpkt(2, i, 0, 0))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if credits != 3 || data != 6 {
		t.Fatalf("delivered %d credits, %d data, want 3/6", credits, data)
	}
}
