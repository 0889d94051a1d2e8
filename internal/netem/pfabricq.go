package netem

import (
	"pase/internal/check"
	"pase/internal/obs"
	"pase/internal/pkt"
)

// PFabric is the pFabric switch queue: a single small shared buffer
// with priority dropping and priority scheduling on the fine-grained
// Rank header (lower Rank = more urgent; pFabric sets Rank to the
// flow's remaining size).
//
//   - Dropping: when the buffer is full and a packet arrives, the
//     queued packet with the largest Rank is evicted if it is less
//     urgent than the arrival; otherwise the arrival is dropped.
//   - Scheduling: dequeue picks the packet with the smallest Rank, but
//     then actually transmits the earliest (lowest-Seq) queued packet
//     of that packet's flow, which avoids flow-internal reordering
//     (the "starvation prevention" rule in the pFabric paper).
//
// The buffer is tiny (≈2×BDP) so linear scans are appropriate — real
// pFabric hardware does the same comparisons in parallel.
type PFabric struct {
	Limit int
	// Occ, when set, records post-enqueue occupancy (packets).
	Occ *obs.Histogram
	// Scanned, when set, counts the buffer slots the linear scans
	// visit, one Add per scan.
	Scanned  *obs.Counter
	q        []pfabricSlot
	bytes    int64
	stats    QueueStats
	chk      *check.Checker
	chkLabel string
}

// pfabricSlot is one buffered packet with its arrival stamp, which
// breaks every Rank and Seq tie: the queue's accepted-packet count
// (QueueStats.Enqueued) once the packet is counted.
type pfabricSlot struct {
	p   *pkt.Packet
	arr uint64
}

// NewPFabric returns a pFabric queue bounded at limit packets.
func NewPFabric(limit int) *PFabric {
	return &PFabric{Limit: limit}
}

// AttachCheck implements Checkable.
func (f *PFabric) AttachCheck(label string, c *check.Checker) {
	f.chkLabel, f.chk = label, c
}

// CheckConservation implements Checkable. Priority eviction drops
// packets after acceptance, which the conservation inequality
// accounts for.
func (f *PFabric) CheckConservation() {
	f.chk.Conservation(f.chkLabel, f.stats.Enqueued, f.stats.Dequeued, f.stats.Dropped, len(f.q))
}

// Enqueue implements Queue.
func (f *PFabric) Enqueue(p *pkt.Packet) bool {
	if f.chk != nil {
		f.chk.PktLive(f.chkLabel, uint64(p.Flow), p.Released())
	}
	if len(f.q) >= f.Limit {
		vi := f.worst()
		if vi < 0 || f.q[vi].p.Rank <= p.Rank {
			f.stats.drop(p)
			return false
		}
		f.stats.drop(f.removeAt(vi))
	}
	if f.q == nil {
		// Sized once, on the port's first packet: most ports of a fabric
		// never see one, and set-up should not pay for their buffers.
		f.q = make([]pfabricSlot, 0, f.Limit)
	}
	f.stats.accept(p)
	f.q = append(f.q, pfabricSlot{p, uint64(f.stats.Enqueued)})
	f.bytes += int64(p.Size)
	f.stats.noteLen(len(f.q))
	f.Occ.Observe(int64(len(f.q)))
	if f.chk != nil {
		f.chk.QueueCap(f.chkLabel, len(f.q), f.Limit)
	}
	return true
}

// worst returns the index of the least urgent packet (largest Rank,
// breaking ties toward the most recent arrival), or -1 if empty.
func (f *PFabric) worst() int {
	f.Scanned.Add(int64(len(f.q)))
	best := -1
	for i, s := range f.q {
		if best < 0 || s.p.Rank > f.q[best].p.Rank ||
			(s.p.Rank == f.q[best].p.Rank && s.arr > f.q[best].arr) {
			best = i
		}
	}
	return best
}

// Dequeue implements Queue.
func (f *PFabric) Dequeue() *pkt.Packet {
	if len(f.q) == 0 {
		return nil
	}
	f.Scanned.Add(int64(2 * len(f.q))) // the two scans below
	// Most urgent packet decides which flow transmits...
	best := 0
	for i, s := range f.q {
		if s.p.Rank < f.q[best].p.Rank ||
			(s.p.Rank == f.q[best].p.Rank && s.arr < f.q[best].arr) {
			best = i
		}
	}
	flow := f.q[best].p.Flow
	// ...but the flow's earliest segment goes first.
	sel := best
	for i, s := range f.q {
		if s.p.Flow == flow && (s.p.Seq < f.q[sel].p.Seq ||
			(s.p.Seq == f.q[sel].p.Seq && s.arr < f.q[sel].arr)) {
			sel = i
		}
	}
	f.stats.Dequeued++
	return f.removeAt(sel)
}

// removeAt takes the packet in slot i out of the buffer.
func (f *PFabric) removeAt(i int) *pkt.Packet {
	p := f.q[i].p
	f.bytes -= int64(p.Size)
	last := len(f.q) - 1
	f.q[i] = f.q[last]
	f.q[last] = pfabricSlot{}
	f.q = f.q[:last]
	return p
}

func (f *PFabric) Len() int           { return len(f.q) }
func (f *PFabric) Bytes() int64       { return f.bytes }
func (f *PFabric) Stats() *QueueStats { return &f.stats }
