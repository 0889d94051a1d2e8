package netem

import (
	"testing"

	"pase/internal/pkt"
)

// TestPrioBandClampBoundaries pins the band-mapping edges: negative
// priorities clamp to the top band, out-of-range ones to the bottom.
func TestPrioBandClampBoundaries(t *testing.T) {
	cases := []struct {
		prio int8
		band int
	}{
		{-128, 0}, {-1, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 3}, {127, 3},
	}
	for _, tc := range cases {
		q := NewPrio(4, 16, 50)
		q.Enqueue(mkpkt(1, 0, tc.prio, 0))
		if got := q.bands[tc.band].len(); got != 1 {
			t.Errorf("prio %d: band %d len = %d, want 1", tc.prio, tc.band, got)
		}
	}
}

// TestPrioMarkingThresholdBoundary pins DCTCP-style marking at exactly
// K: an arrival that sees its band at K-1 packets stays unmarked, at K
// it is marked — and non-ECT packets are never marked.
func TestPrioMarkingThresholdBoundary(t *testing.T) {
	const K = 3
	cases := []struct {
		name   string
		occ    int // band occupancy the probe arrival sees
		ect    bool
		marked bool
	}{
		{"below K", K - 1, true, false},
		{"exactly K", K, true, true},
		{"above K", K + 1, true, true},
		{"non-ECT at K", K, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := NewPrio(2, 100, K)
			for i := 0; i < tc.occ; i++ {
				p := mkpkt(1, int32(i), 1, 0)
				p.ECT = false // fillers must not consume marks
				q.Enqueue(p)
			}
			probe := mkpkt(2, 0, 1, 0)
			probe.ECT = tc.ect
			q.Enqueue(probe)
			if probe.CE != tc.marked {
				t.Fatalf("CE = %v, want %v (occ %d, K %d)", probe.CE, tc.marked, tc.occ, K)
			}
		})
	}
}

// TestPrioPushOutVictimSelection pins the shared-buffer eviction rule:
// the victim is the newest packet of the lowest-priority non-empty band
// strictly below the arrival, never the arrival's own band or better.
func TestPrioPushOutVictimSelection(t *testing.T) {
	q := NewPrio(4, 4, 50)
	q.Enqueue(mkpkt(1, 0, 1, 0))
	q.Enqueue(mkpkt(2, 0, 2, 0))
	q.Enqueue(mkpkt(3, 0, 3, 0)) // oldest in band 3
	q.Enqueue(mkpkt(4, 1, 3, 0)) // newest in band 3: the victim
	if !q.Enqueue(mkpkt(5, 0, 0, 0)) {
		t.Fatal("high-priority arrival must push out")
	}
	if q.bands[3].len() != 1 {
		t.Fatalf("band 3 len = %d, want 1", q.bands[3].len())
	}
	// The oldest band-3 packet survived.
	var last *pkt.Packet
	for {
		p := q.Dequeue()
		if p == nil {
			break
		}
		last = p
	}
	if last.Flow != 3 {
		t.Fatalf("surviving band-3 packet is flow %d, want 3 (the oldest)", last.Flow)
	}
}

// TestPrioBottomBandArrivalCannotPushOut: an arrival mapped to the
// bottom band has no band strictly below it — a full buffer drops it
// even when lower-urgency traffic fills other bands above.
func TestPrioBottomBandArrivalCannotPushOut(t *testing.T) {
	q := NewPrio(3, 2, 50)
	q.Enqueue(mkpkt(1, 0, 2, 0))
	q.Enqueue(mkpkt(2, 0, 2, 0))
	if q.Enqueue(mkpkt(3, 0, 2, 0)) {
		t.Fatal("bottom-band arrival into a full buffer must drop")
	}
	if q.Enqueue(mkpkt(4, 0, 127, 0)) { // clamps to the bottom band too
		t.Fatal("clamped bottom-band arrival must drop as well")
	}
	if q.Stats().Dropped != 2 || q.Len() != 2 {
		t.Fatalf("dropped=%d len=%d, want 2 and 2", q.Stats().Dropped, q.Len())
	}
}

// TestPrioSingleBandDegeneratesToDropTail: with one band there is never
// a band strictly below, so the discipline is plain shared drop-tail.
func TestPrioSingleBandDegeneratesToDropTail(t *testing.T) {
	q := NewPrio(1, 2, 50)
	for i := int32(0); i < 4; i++ {
		q.Enqueue(mkpkt(1, i, 0, 0))
	}
	if q.Len() != 2 || q.Stats().Dropped != 2 {
		t.Fatalf("len=%d dropped=%d, want 2 and 2", q.Len(), q.Stats().Dropped)
	}
	for i := int32(0); i < 2; i++ {
		if p := q.Dequeue(); p.Seq != i {
			t.Fatalf("seq %d dequeued, want %d (FIFO)", p.Seq, i)
		}
	}
}
