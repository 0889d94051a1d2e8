package netem

import (
	"pase/internal/check"
	"pase/internal/obs"
	"pase/internal/pkt"
)

// Prio is the commodity-switch discipline PASE relies on: a small,
// fixed number of strict-priority bands (classes) in front of one
// egress link, with DCTCP-style ECN marking per band. It models the
// PRIO/CBQ-over-RED configuration from the paper's testbed (§3.3).
//
// Buffering is shared across bands up to Limit packets. When the
// buffer is full and a packet of band b arrives, the discipline drops
// the newest packet from the lowest-priority non-empty band strictly
// below b ("push-out"); if no such band exists the arrival itself is
// dropped. Commodity shared-buffer switches approximate this with
// per-class dynamic thresholds.
//
// Marking: an arriving ECN-capable packet is marked when its own
// band's occupancy is at or above K. Per-band marking keeps the many
// one-packet windows parked in the bottom band (PASE's paused flows)
// from spuriously marking top-band traffic.
type Prio struct {
	Limit int
	K     int
	Bands int
	// PerBand gives every band its own Limit-packet queue instead of
	// sharing one buffer — the Linux PRIO/CBQ arrangement of the
	// paper's testbed, where each class has an independent qdisc.
	PerBand bool
	// OccBand, when set, records per-band post-enqueue occupancy
	// (packets); entry b observes band b. A short or nil slice leaves
	// the remaining bands uninstrumented.
	OccBand []*obs.Histogram

	bands    []fifo
	total    int
	bytes    int64
	stats    QueueStats
	chk      *check.Checker
	chkLabel string
}

// NewPrio returns a strict-priority queue with the given number of
// bands, shared buffer limit and per-band marking threshold K (all in
// packets).
func NewPrio(bands, limit, k int) *Prio {
	if bands < 1 {
		panic("netem: Prio needs at least one band")
	}
	return &Prio{Limit: limit, K: k, Bands: bands, bands: make([]fifo, bands)}
}

// AttachCheck implements Checkable.
func (q *Prio) AttachCheck(label string, c *check.Checker) {
	q.chkLabel, q.chk = label, c
}

// CheckConservation implements Checkable. Push-out drops packets after
// acceptance, which the conservation inequality accounts for.
func (q *Prio) CheckConservation() {
	q.chk.Conservation(q.chkLabel, q.stats.Enqueued, q.stats.Dequeued, q.stats.Dropped, q.total)
}

// band clamps a packet's priority class into the configured range.
func (q *Prio) band(p *pkt.Packet) int {
	b := int(p.Prio)
	if b < 0 {
		b = 0
	}
	if b >= q.Bands {
		b = q.Bands - 1
	}
	return b
}

// Enqueue implements Queue.
func (q *Prio) Enqueue(p *pkt.Packet) bool {
	if q.chk != nil {
		q.chk.PktLive(q.chkLabel, uint64(p.Flow), p.Released())
	}
	b := q.band(p)
	if q.PerBand {
		if q.bands[b].len() >= q.Limit {
			q.stats.drop(p)
			return false
		}
	} else if q.total >= q.Limit {
		if !q.pushOutBelow(b) {
			q.stats.drop(p)
			return false
		}
	}
	if p.ECT && q.bands[b].len() >= q.K {
		p.CE = true
		q.stats.Marked++
		if q.chk != nil {
			q.chk.ECNMark(q.chkLabel, uint64(p.Flow), q.bands[b].len(), q.K)
		}
	}
	q.bands[b].push(p)
	q.total++
	q.bytes += int64(p.Size)
	q.stats.accept(p)
	q.stats.noteLen(q.total)
	if b < len(q.OccBand) {
		q.OccBand[b].Observe(int64(q.bands[b].len()))
	}
	if q.chk != nil {
		if q.PerBand {
			q.chk.QueueCap(q.chkLabel, q.bands[b].len(), q.Limit)
		} else {
			q.chk.QueueCap(q.chkLabel, q.total, q.Limit)
		}
	}
	return true
}

// pushOutBelow drops the newest packet of the lowest-priority
// non-empty band strictly below priority b. It reports whether room
// was made.
func (q *Prio) pushOutBelow(b int) bool {
	for v := q.Bands - 1; v > b; v-- {
		if q.bands[v].empty() {
			continue
		}
		victim := q.bands[v].popTail()
		q.total--
		q.bytes -= int64(victim.Size)
		q.stats.drop(victim)
		return true
	}
	return false
}

// Dequeue implements Queue: strict priority, band 0 first.
func (q *Prio) Dequeue() *pkt.Packet {
	for b := 0; b < q.Bands; b++ {
		if q.bands[b].empty() {
			continue
		}
		p := q.bands[b].pop()
		q.total--
		q.bytes -= int64(p.Size)
		q.stats.Dequeued++
		if q.chk != nil {
			// Independent recount of the higher bands: catches any
			// future fast-path (cached non-empty index, per-band
			// counters) that goes stale.
			busy := 0
			for v := 0; v < b; v++ {
				busy += q.bands[v].len()
			}
			q.chk.StrictPrio(q.chkLabel, b, busy)
		}
		return p
	}
	return nil
}

func (q *Prio) Len() int           { return q.total }
func (q *Prio) Bytes() int64       { return q.bytes }
func (q *Prio) Stats() *QueueStats { return &q.stats }
