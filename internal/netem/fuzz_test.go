package netem

import (
	"slices"
	"sort"
	"testing"

	"pase/internal/check"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// The fuzz targets drive the queue disciplines with arbitrary
// enqueue/dequeue sequences under the strict invariant checker (which
// panics on the first violation) plus a handful of model-independent
// properties: occupancy bounds, byte accounting against a shadow
// ledger, and end-state packet conservation. They run continuously
// under `go test -fuzz` and as plain regression tests over the seed
// corpus in testdata/fuzz/.

// fuzzClock is a trivial checker clock for data-structure fuzzing —
// the queues under test never consult simulated time.
func fuzzClock() int64 { return 0 }

// FuzzPrioQueue exercises the strict-priority discipline across both
// buffer modes (shared with push-out, per-band) with hostile priority
// values, ECN mixes and interleaved dequeues.
func FuzzPrioQueue(f *testing.F) {
	f.Add([]byte{2, 4, 2, 0, 0x10, 0x81, 0x7f, 0x00, 0xff, 0x12})
	f.Add([]byte{4, 1, 0, 1, 0xff, 0xfe, 0xfd, 0x80, 0x01, 0x02, 0x03})
	f.Add([]byte{1, 8, 3, 2, 0x00, 0x40, 0x80, 0xc0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		bands := 1 + int(data[0])%6
		limit := int(data[1]) % 12
		k := int(data[2]) % 6
		mode := data[3]
		q := NewPrio(bands, limit, k)
		q.PerBand = mode&1 != 0
		q.AttachCheck("fuzz/prio", check.NewStrict(fuzzClock))

		var seq int32
		for _, op := range data[4:] {
			if op&0x80 != 0 {
				q.Dequeue()
				continue
			}
			seq++
			q.Enqueue(&pkt.Packet{
				Flow: pkt.FlowID(op % 5), Seq: seq, Type: pkt.Data,
				Prio: int8(op) - 3, // negative and oversized bands included
				Size: pkt.MTU, ECT: op&0x40 != 0,
			})
		}
		// Occupancy bounds: shared mode bounds the total, per-band mode
		// each band.
		if q.PerBand {
			for b := 0; b < bands; b++ {
				if q.bands[b].len() > limit {
					t.Fatalf("band %d holds %d > limit %d", b, q.bands[b].len(), limit)
				}
			}
		} else if q.Len() > limit {
			t.Fatalf("len %d > limit %d", q.Len(), limit)
		}
		// Every packet occupies MTU bytes: byte and packet accounting
		// must agree with each other and with the per-band sums.
		total := 0
		for b := 0; b < bands; b++ {
			total += q.bands[b].len()
		}
		if total != q.Len() {
			t.Fatalf("band sum %d != Len %d", total, q.Len())
		}
		if q.Bytes() != int64(total)*pkt.MTU {
			t.Fatalf("Bytes() = %d, want %d", q.Bytes(), int64(total)*pkt.MTU)
		}
		q.CheckConservation()

		// Draining must yield exactly Len packets (the attached strict
		// checker verifies band order on every dequeue).
		for n := q.Len(); n > 0; n-- {
			if q.Dequeue() == nil {
				t.Fatal("Dequeue returned nil with packets queued")
			}
		}
		if q.Dequeue() != nil {
			t.Fatal("drained queue still yields packets")
		}
		if q.Bytes() != 0 {
			t.Fatalf("drained queue reports %d bytes", q.Bytes())
		}
		q.CheckConservation()
	})
}

// FuzzCreditQueue exercises the ExpressPass port discipline: per-class
// bounds, the credit pacing gap (the strict checker's credit_pace
// invariant panics if a credit ever releases early), class service
// order, byte accounting and end-state conservation, under arbitrary
// enqueue/dequeue/clock-advance sequences.
func FuzzCreditQueue(f *testing.F) {
	f.Add([]byte{4, 2, 3, 1, 0x01, 0x82, 0x43, 0x84, 0x25, 0x96})
	f.Add([]byte{9, 1, 1, 4, 0xc1, 0x02, 0x83, 0x44, 0x85, 0x06, 0x87})
	f.Add([]byte{2, 5, 2, 2, 0x11, 0x12, 0x93, 0x94, 0x95, 0x16, 0x97, 0x18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		dataLim := int(data[0]) % 12
		credLim := int(data[1]) % 6
		ctrlLim := int(data[2]) % 6
		gap := sim.Duration(1+int(data[3])%8) * sim.Microsecond
		q := NewCreditQueue(dataLim, credLim, ctrlLim)
		q.Gap = gap
		var now sim.Time
		q.BindClock(func() sim.Time { return now })
		q.AttachCheck("fuzz/credit", check.NewStrict(func() int64 { return int64(now) }))

		// Shadow ledger: bytes by class, plus an independent pacing
		// oracle alongside the strict checker's.
		var bytes int64
		var lastEligible sim.Time
		var seq int32
		for _, op := range data[4:] {
			// Low bits advance the clock so eligibility windows open and
			// close mid-sequence.
			now = now.Add(sim.Duration(op&0x0f) * 500 * sim.Nanosecond)
			if op&0x80 != 0 {
				p := q.Dequeue()
				if p == nil {
					continue
				}
				bytes -= int64(p.Size)
				if p.Type == pkt.Credit {
					if now < lastEligible {
						t.Fatalf("credit released at %v before eligibility %v", now, lastEligible)
					}
					lastEligible = now.Add(gap)
				}
				continue
			}
			seq++
			var p *pkt.Packet
			switch op % 3 {
			case 0:
				p = &pkt.Packet{Flow: 1, Seq: seq, Type: pkt.Data, Size: pkt.MTU}
			case 1:
				p = &pkt.Packet{Flow: 1, Seq: seq, Type: pkt.Credit, Size: pkt.CreditSize}
			default:
				p = &pkt.Packet{Flow: 1, Seq: seq, Type: pkt.Ack, Size: pkt.HeaderSize}
			}
			if q.Enqueue(p) {
				bytes += int64(p.Size)
			}
		}
		if q.data.len() > dataLim || q.credit.len() > credLim {
			t.Fatalf("class over bound: data %d/%d credit %d/%d",
				q.data.len(), dataLim, q.credit.len(), credLim)
		}
		if q.Bytes() != bytes {
			t.Fatalf("Bytes() = %d, shadow ledger %d", q.Bytes(), bytes)
		}
		q.CheckConservation()

		// Drain: advancing the clock one gap per pull must empty the
		// queue (credits become eligible, data and ctrl always are).
		for i := q.Len(); i > 0; i-- {
			now = now.Add(gap)
			if q.Dequeue() == nil {
				t.Fatalf("nil dequeue with %d packets queued", q.Len())
			}
		}
		if q.Dequeue() != nil {
			t.Fatal("drained queue still yields packets")
		}
		if q.Bytes() != 0 {
			t.Fatalf("drained queue reports %d bytes", q.Bytes())
		}
		q.CheckConservation()
	})
}

// FuzzPfabricQueue exercises the pFabric shared buffer: priority
// eviction under overflow, rank-ordered scheduling with the
// starvation-prevention rule, and exact byte/packet accounting. Every
// operation is replayed on pfabricModel, the discipline's rules
// restated with sorts, and the two must accept, evict and dequeue the
// same packets. Ranks run negative and tie often; bit 6 of an op turns
// the arrival into a retransmission, an older Seq of its flow.
func FuzzPfabricQueue(f *testing.F) {
	f.Add([]byte{3, 0x01, 0x42, 0x83, 0x24, 0xc5, 0x66})
	f.Add([]byte{1, 0xff, 0x00, 0x80, 0x7f, 0x81})
	f.Add([]byte{6, 0x11, 0x12, 0x13, 0x94, 0x15, 0x96, 0x17})
	f.Add([]byte{10, 0x01, 0x41, 0x81, 0x08})                                          // limit 0
	f.Add([]byte{4, 0x05, 0x09, 0x0d, 0x4b, 0x47, 0x85, 0x4f, 0x88, 0x4d, 0x81, 0x82}) // retransmissions
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		limit := int(data[0]) % 10
		q := NewPFabric(limit)
		q.AttachCheck("fuzz/pfabric", check.NewStrict(fuzzClock))
		ref := &pfabricModel{limit: limit}

		live := map[*pkt.Packet]bool{}
		var seq int32
		for i, op := range data[1:] {
			if op&0x80 != 0 {
				p := q.Dequeue()
				if want := ref.dequeue(); p != want {
					t.Fatalf("op %d: dequeued %v, model %v", i, p, want)
				}
				if p == nil {
					if q.Len() != 0 {
						t.Fatal("nil dequeue from non-empty queue")
					}
					continue
				}
				if !live[p] {
					t.Fatal("dequeued a packet that was never accepted (or twice)")
				}
				delete(live, p)
				continue
			}
			pseq := seq + 1
			if op&0x40 != 0 {
				pseq = seq - 2*int32(op&0x07) // retransmission
			} else {
				seq++
			}
			p := &pkt.Packet{
				Flow: pkt.FlowID(op % 4), Seq: pseq, Type: pkt.Data,
				Rank: int64(op&0x3f) - 8, // negative ranks included
				Size: pkt.MTU, ECT: true,
			}
			ok := q.Enqueue(p)
			if want := ref.enqueue(p); ok != want {
				t.Fatalf("op %d: Enqueue(%v) = %v, model %v", i, p, ok, want)
			}
			if ok {
				live[p] = true
			}
			// Eviction: the buffer must hold exactly the model's packets.
			if len(q.q) != len(ref.q) {
				t.Fatalf("op %d: %d packets buffered, model %d", i, len(q.q), len(ref.q))
			}
			for _, s := range q.q {
				if !ref.holds(s.p) {
					t.Fatalf("op %d: buffer holds %v, evicted in the model", i, s.p)
				}
			}
		}
		if q.Len() > limit {
			t.Fatalf("len %d > limit %d", q.Len(), limit)
		}
		// live overcounts by the eviction victims; drain and strike out.
		for {
			p := q.Dequeue()
			if want := ref.dequeue(); p != want {
				t.Fatalf("drain: dequeued %v, model %v", p, want)
			}
			if p == nil {
				break
			}
			if !live[p] {
				t.Fatal("drained a packet that was never accepted")
			}
			delete(live, p)
		}
		if q.Bytes() != 0 {
			t.Fatalf("drained queue reports %d bytes", q.Bytes())
		}
		// Whatever is left in live was evicted: accepted - dequeued -
		// evicted must balance to zero now that the queue is empty.
		st := q.Stats()
		evicted := int64(len(live))
		if st.Enqueued != st.Dequeued+evicted {
			t.Fatalf("conservation: enq %d != deq %d + evicted %d",
				st.Enqueued, st.Dequeued, evicted)
		}
		q.CheckConservation()
	})
}

// pfabricModel is the pFabric discipline's reference: the buffer in
// arrival order, and each decision a sort of a copy of it.
//
//   - A full buffer evicts its least urgent packet — largest Rank, the
//     latest arrival among equals — when the arrival's Rank is
//     strictly smaller; otherwise it drops the arrival.
//   - Dequeue finds the most urgent packet — smallest Rank, the
//     earliest arrival among equals — and sends its flow's lowest Seq,
//     the earliest arrival among equal Seqs.
type pfabricModel struct {
	limit int
	q     []*pkt.Packet // arrival order
}

func (m *pfabricModel) enqueue(p *pkt.Packet) bool {
	if len(m.q) >= m.limit {
		if len(m.q) == 0 {
			return false
		}
		byUrgency := m.sorted(func(a, b int) bool { return m.q[a].Rank < m.q[b].Rank })
		victim := byUrgency[len(byUrgency)-1]
		if victim.Rank <= p.Rank {
			return false
		}
		m.remove(victim)
	}
	m.q = append(m.q, p)
	return true
}

func (m *pfabricModel) dequeue() *pkt.Packet {
	if len(m.q) == 0 {
		return nil
	}
	flow := m.sorted(func(a, b int) bool { return m.q[a].Rank < m.q[b].Rank })[0].Flow
	var mine []*pkt.Packet
	for _, p := range m.q {
		if p.Flow == flow {
			mine = append(mine, p)
		}
	}
	sort.SliceStable(mine, func(a, b int) bool { return mine[a].Seq < mine[b].Seq })
	m.remove(mine[0])
	return mine[0]
}

// sorted returns the buffer stably sorted by less: arrival order
// breaks every tie.
func (m *pfabricModel) sorted(less func(a, b int) bool) []*pkt.Packet {
	idx := make([]int, len(m.q))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	out := make([]*pkt.Packet, len(idx))
	for i, j := range idx {
		out[i] = m.q[j]
	}
	return out
}

func (m *pfabricModel) remove(p *pkt.Packet) {
	m.q = slices.DeleteFunc(m.q, func(x *pkt.Packet) bool { return x == p })
}

func (m *pfabricModel) holds(p *pkt.Packet) bool { return slices.Contains(m.q, p) }
