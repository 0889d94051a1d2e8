package netem

import (
	"testing"
	"testing/quick"

	"pase/internal/pkt"
)

func mkpkt(flow pkt.FlowID, seq int32, prio int8, rank int64) *pkt.Packet {
	return &pkt.Packet{
		Flow: flow, Seq: seq, Prio: prio, Rank: rank,
		Size: pkt.MTU, Type: pkt.Data, ECT: true,
	}
}

func TestDropTailFIFOAndLimit(t *testing.T) {
	q := NewDropTail(3)
	for i := int32(0); i < 5; i++ {
		q.Enqueue(mkpkt(1, i, 0, 0))
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d, want 3", q.Len())
	}
	if q.Stats().Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", q.Stats().Dropped)
	}
	if q.Stats().Marked != 0 {
		t.Fatalf("marked = %d ECN-capable packets, want 0", q.Stats().Marked)
	}
	for i := int32(0); i < 3; i++ {
		p := q.Dequeue()
		if p.Seq != i || p.CE {
			t.Fatalf("dequeue order broken or packet marked: got seq %d (CE %v) want %d", p.Seq, p.CE, i)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("empty queue should return nil")
	}
}

func TestFIFOWraparound(t *testing.T) {
	q := NewDropTail(1000)
	seq := int32(0)
	next := int32(0)
	// Interleave pushes and pops to force ring wraparound.
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Enqueue(mkpkt(1, seq, 0, 0))
			seq++
		}
		for i := 0; i < 5; i++ {
			p := q.Dequeue()
			if p == nil || p.Seq != next {
				t.Fatalf("round %d: got %v, want seq %d", round, p, next)
			}
			next++
		}
	}
	for q.Len() > 0 {
		p := q.Dequeue()
		if p.Seq != next {
			t.Fatalf("drain: got seq %d, want %d", p.Seq, next)
		}
		next++
	}
	if next != seq {
		t.Fatalf("drained %d packets, pushed %d", next, seq)
	}
}

// TestFifoMatchesSliceModel drives the ring through runs of pushes,
// pops and tail pops — across the wrap, through each doubling and back
// down to empty — and checks it against a plain slice after every
// operation: same packets in the same order, same bytes, and a buffer
// whose length stays a power of two.
func TestFifoMatchesSliceModel(t *testing.T) {
	var f fifo
	var model []*pkt.Packet
	state := uint64(0x9e3779b97f4a7c15)
	rnd := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	seq := int32(0)
	for step := 0; step < 20000; step++ {
		// The push share drifts in phases so the ring fills past several
		// doublings, then drains to empty and refills off a moved head.
		pushPct := 70
		if step/500%2 == 1 {
			pushPct = 30
		}
		switch r := rnd(100); {
		case r < pushPct:
			seq++
			p := &pkt.Packet{Seq: seq, Size: 40 + int32(rnd(1460))}
			f.push(p)
			model = append(model, p)
		case r < pushPct+(100-pushPct)*2/3:
			got := f.pop()
			var want *pkt.Packet
			if len(model) > 0 {
				want, model = model[0], model[1:]
			}
			if got != want {
				t.Fatalf("step %d: pop = %v, want %v", step, got, want)
			}
		default:
			got := f.popTail()
			var want *pkt.Packet
			if n := len(model); n > 0 {
				want, model = model[n-1], model[:n-1]
			}
			if got != want {
				t.Fatalf("step %d: popTail = %v, want %v", step, got, want)
			}
		}
		if n := len(f.buf); n&(n-1) != 0 {
			t.Fatalf("step %d: ring length %d is not a power of two", step, n)
		}
		var bytes int64
		for i, p := range model {
			if got := f.buf[(f.head+i)&(len(f.buf)-1)]; got != p {
				t.Fatalf("step %d: slot %d holds %v, want %v", step, i, got, p)
			}
			bytes += int64(p.Size)
		}
		if f.len() != len(model) || f.size() != bytes || f.empty() != (len(model) == 0) {
			t.Fatalf("step %d: len %d size %d, model %d and %d", step, f.len(), f.size(), len(model), bytes)
		}
	}
	if len(f.buf) < 64 {
		t.Fatalf("ring grew to %d only; the test should pass several doublings", len(f.buf))
	}
}

func TestREDECNMarksAboveK(t *testing.T) {
	q := NewREDECN(100, 5)
	for i := int32(0); i < 10; i++ {
		q.Enqueue(mkpkt(1, i, 0, 0))
	}
	marked := 0
	for q.Len() > 0 {
		if q.Dequeue().CE {
			marked++
		}
	}
	// Packets 0..4 arrive below threshold; 5..9 at/above it.
	if marked != 5 {
		t.Fatalf("marked = %d, want 5", marked)
	}
	if q.Stats().Marked != 5 {
		t.Fatalf("stats.Marked = %d, want 5", q.Stats().Marked)
	}
}

func TestREDECNIgnoresNonECT(t *testing.T) {
	q := NewREDECN(100, 0)
	p := mkpkt(1, 0, 0, 0)
	p.ECT = false
	q.Enqueue(p)
	if q.Dequeue().CE {
		t.Fatal("non-ECT packet must not be CE-marked")
	}
}

func TestPrioStrictOrdering(t *testing.T) {
	q := NewPrio(4, 100, 50)
	q.Enqueue(mkpkt(1, 0, 3, 0))
	q.Enqueue(mkpkt(2, 0, 1, 0))
	q.Enqueue(mkpkt(3, 0, 0, 0))
	q.Enqueue(mkpkt(4, 0, 2, 0))
	q.Enqueue(mkpkt(5, 1, 0, 0))
	var flows []pkt.FlowID
	for q.Len() > 0 {
		flows = append(flows, q.Dequeue().Flow)
	}
	want := []pkt.FlowID{3, 5, 2, 4, 1}
	for i := range want {
		if flows[i] != want[i] {
			t.Fatalf("dequeue order = %v, want %v", flows, want)
		}
	}
}

func TestPrioClampsBand(t *testing.T) {
	q := NewPrio(4, 100, 50)
	q.Enqueue(mkpkt(1, 0, 9, 0))  // clamps to band 3
	q.Enqueue(mkpkt(2, 0, -2, 0)) // clamps to band 0
	if q.bands[3].len() != 1 || q.bands[0].len() != 1 {
		t.Fatalf("clamping failed: band0=%d band3=%d", q.bands[0].len(), q.bands[3].len())
	}
}

func TestPrioPushOut(t *testing.T) {
	q := NewPrio(2, 4, 50)
	for i := int32(0); i < 4; i++ {
		q.Enqueue(mkpkt(1, i, 1, 0)) // fill with low priority
	}
	ok := q.Enqueue(mkpkt(2, 0, 0, 0)) // high-priority arrival
	if !ok {
		t.Fatal("high-priority arrival should push out a low-priority packet")
	}
	if q.Len() != 4 {
		t.Fatalf("len = %d, want 4", q.Len())
	}
	if q.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", q.Stats().Dropped)
	}
	if got := q.Dequeue().Flow; got != 2 {
		t.Fatalf("first out = flow %d, want 2", got)
	}
	// Newest low-priority packet (seq 3) was the victim.
	var seqs []int32
	for q.Len() > 0 {
		seqs = append(seqs, q.Dequeue().Seq)
	}
	for _, s := range seqs {
		if s == 3 {
			t.Fatal("victim seq 3 still queued")
		}
	}
}

func TestPrioFullLowPriorityArrivalDropped(t *testing.T) {
	q := NewPrio(2, 2, 50)
	q.Enqueue(mkpkt(1, 0, 0, 0))
	q.Enqueue(mkpkt(1, 1, 0, 0))
	if q.Enqueue(mkpkt(2, 0, 1, 0)) {
		t.Fatal("low-priority arrival into full higher-priority buffer must drop")
	}
}

func TestPFabricDropsLeastUrgent(t *testing.T) {
	q := NewPFabric(3)
	q.Enqueue(mkpkt(1, 0, 0, 100))
	q.Enqueue(mkpkt(2, 0, 0, 300))
	q.Enqueue(mkpkt(3, 0, 0, 200))
	// Full. A more urgent packet evicts rank 300.
	if !q.Enqueue(mkpkt(4, 0, 0, 50)) {
		t.Fatal("urgent packet should be accepted via eviction")
	}
	if q.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", q.Stats().Dropped)
	}
	// A less urgent packet than everything queued is itself dropped.
	if q.Enqueue(mkpkt(5, 0, 0, 400)) {
		t.Fatal("least-urgent arrival must be dropped")
	}
	var ranks []int64
	for q.Len() > 0 {
		ranks = append(ranks, q.Dequeue().Rank)
	}
	want := []int64{50, 100, 200}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
}

func TestPFabricSameFlowEarliestSeqFirst(t *testing.T) {
	q := NewPFabric(10)
	// Flow 7 has the most urgent packet (rank 10, seq 5) but an older
	// segment (seq 2, rank 20) is also queued: seq 2 must leave first.
	q.Enqueue(mkpkt(9, 0, 0, 50))
	q.Enqueue(mkpkt(7, 2, 0, 20))
	q.Enqueue(mkpkt(7, 5, 0, 10))
	p := q.Dequeue()
	if p.Flow != 7 || p.Seq != 2 {
		t.Fatalf("got flow %d seq %d, want flow 7 seq 2", p.Flow, p.Seq)
	}
	p = q.Dequeue()
	if p.Flow != 7 || p.Seq != 5 {
		t.Fatalf("got flow %d seq %d, want flow 7 seq 5", p.Flow, p.Seq)
	}
	if q.Dequeue().Flow != 9 {
		t.Fatal("flow 9 should drain last")
	}
}

// Property: no discipline ever loses or duplicates packets — everything
// enqueued is either dequeued or counted as dropped.
func TestQueueConservation(t *testing.T) {
	mk := map[string]func() Queue{
		"droptail": func() Queue { return NewDropTail(8) },
		"red":      func() Queue { return NewREDECN(8, 4) },
		"prio":     func() Queue { return NewPrio(4, 8, 4) },
		"pfabric":  func() Queue { return NewPFabric(8) },
	}
	for name, factory := range mk {
		name, factory := name, factory
		f := func(ops []uint16) bool {
			q := factory()
			inQueue := 0
			var enq, deq int64
			for i, op := range ops {
				if op%3 == 0 && inQueue > 0 {
					if q.Dequeue() != nil {
						deq++
						inQueue--
					}
				} else {
					p := mkpkt(pkt.FlowID(op%5), int32(i), int8(op%4), int64(op%97))
					if q.Enqueue(p) {
						enq++
						inQueue++
					}
					// Push-out/eviction may have dropped another
					// packet; recompute from Len.
					inQueue = q.Len()
				}
			}
			st := q.Stats()
			_ = enq
			_ = deq
			// Invariant: Enqueued - Dequeued - Len == packets evicted
			// after acceptance, which must be within Dropped.
			evicted := st.Enqueued - st.Dequeued - int64(q.Len())
			if evicted < 0 || evicted > st.Dropped {
				t.Logf("%s: enq=%d deq=%d len=%d dropped=%d", name, st.Enqueued, st.Dequeued, q.Len(), st.Dropped)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestSwitchDB(t *testing.T) {
	if len(CommoditySwitches) != 5 {
		t.Fatalf("Table 2 has 5 switches, got %d", len(CommoditySwitches))
	}
	ecn, lo, hi := 0, CommoditySwitches[0].Queues, CommoditySwitches[0].Queues
	for _, s := range CommoditySwitches {
		if s.ECN {
			ecn++
		}
		lo, hi = min(lo, s.Queues), max(hi, s.Queues)
	}
	if lo != 3 || hi != 10 {
		t.Fatalf("queues span %d..%d, want 3 (Dell S4810) .. 10 (Broadcom BCM56820)", lo, hi)
	}
	if ecn != 4 {
		t.Fatalf("ECN-capable = %d, want 4", ecn)
	}
}
