package netem

import (
	"pase/internal/check"
	"pase/internal/obs"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// CreditQueue is the ExpressPass port discipline: three class queues
// behind one transmitter.
//
//   - Credit packets sit in a small dedicated FIFO whose drain is
//     rate-limited so one credit leaves per serialization time of the
//     (MTU-sized) data packet it triggers plus the credit itself —
//     credits consume ~5% of the line and the data they summon on the
//     reverse path can never exceed the remaining ~95%. Credits
//     arriving beyond the FIFO's shallow bound are dropped; that drop
//     is the shaper's feedback signal, not loss.
//   - Data packets use a FIFO bounded at DataLimit. Because every data
//     packet was summoned by a shaped credit, this bound holds by
//     construction; a data drop here means the credit loop is broken.
//   - Everything else (ACKs, credit requests, control) shares a third
//     FIFO served ahead of data — these packets are tiny and opening a
//     flow must not wait behind a full data queue.
//
// An eligible credit is served first, then the ctrl class, then data.
// When only an ineligible credit waits, the queue arms a timer on the
// bound engine that kicks the port at the credit's eligibility time —
// the port's pull-based pump would otherwise stall until the next Send.
type CreditQueue struct {
	// DataLimit / CreditLimit / CtrlLimit bound the three class FIFOs
	// (packets).
	DataLimit   int
	CreditLimit int
	CtrlLimit   int
	// Gap is the minimum spacing between credit releases. Bind derives
	// it from the port rate when left zero.
	Gap sim.Duration
	// Occ, when set, records post-enqueue data-queue occupancy.
	Occ *obs.Histogram

	eng   *sim.Engine
	kick  func()
	now   func() sim.Time
	timer sim.Timer
	bound bool

	next   sim.Time // earliest eligible release of the head credit
	data   fifo
	ctrl   fifo
	credit fifo

	stats    QueueStats
	chk      *check.Checker
	chkLabel string
}

// NewCreditQueue returns an ExpressPass discipline with the given data
// and credit bounds. The ctrl class is bounded at ctrlLimit packets.
// Call Bind once the owning port exists; until then the queue serves
// classes without pacing deadlines (a zero clock).
func NewCreditQueue(dataLimit, creditLimit, ctrlLimit int) *CreditQueue {
	return &CreditQueue{DataLimit: dataLimit, CreditLimit: creditLimit, CtrlLimit: ctrlLimit}
}

// Bind connects the queue to its port: the engine clock and transmitter
// kick for pacing timers, and (when Gap is unset) the credit spacing
// derived from the port rate — one credit per MTU+credit serialization
// time, i.e. credits shaped to ~5% of the line.
func (q *CreditQueue) Bind(pt *Port) {
	q.eng = pt.Engine()
	q.kick = pt.Kick
	q.now = q.eng.Now
	if q.Gap == 0 {
		q.Gap = pt.Rate().Serialize(pkt.MTU + pkt.CreditSize)
	}
	q.bound = true
}

// BindClock installs just a time source (standalone tests and fuzzing,
// where no port pulls from the queue and no kick timer is wanted).
func (q *CreditQueue) BindClock(now func() sim.Time) { q.now = now }

// AttachCheck implements Checkable.
func (q *CreditQueue) AttachCheck(label string, c *check.Checker) {
	q.chkLabel, q.chk = label, c
}

// CheckConservation implements Checkable.
func (q *CreditQueue) CheckConservation() {
	q.chk.Conservation(q.chkLabel, q.stats.Enqueued, q.stats.Dequeued, q.stats.Dropped, q.Len())
}

// Enqueue implements Queue.
func (q *CreditQueue) Enqueue(p *pkt.Packet) bool {
	if q.chk != nil {
		q.chk.PktLive(q.chkLabel, uint64(p.Flow), p.Released())
	}
	switch p.Type {
	case pkt.Credit:
		if q.credit.len() >= q.CreditLimit {
			q.stats.drop(p)
			return false
		}
		q.credit.push(p)
	case pkt.Data:
		if q.data.len() >= q.DataLimit {
			q.stats.drop(p)
			return false
		}
		q.data.push(p)
	default:
		if q.ctrl.len() >= q.CtrlLimit {
			q.stats.drop(p)
			return false
		}
		q.ctrl.push(p)
	}
	q.stats.accept(p)
	// MaxLen tracks the data class — the occupancy ExpressPass bounds
	// by construction and the figure's queue-peak metric reads.
	q.stats.noteLen(q.data.len())
	q.Occ.Observe(int64(q.data.len()))
	if q.chk != nil {
		q.chk.QueueCap(q.chkLabel+"/data", q.data.len(), q.DataLimit)
		q.chk.QueueCap(q.chkLabel+"/credit", q.credit.len(), q.CreditLimit)
		q.chk.QueueCap(q.chkLabel+"/ctrl", q.ctrl.len(), q.CtrlLimit)
	}
	return true
}

// Dequeue implements Queue: eligible credit, then ctrl, then data.
func (q *CreditQueue) Dequeue() *pkt.Packet {
	var now sim.Time
	if q.now != nil {
		now = q.now()
	}
	if q.credit.len() > 0 && now >= q.next {
		p := q.credit.pop()
		q.stats.Dequeued++
		if q.chk != nil {
			q.chk.CreditPace(q.chkLabel, int64(now), int64(q.next))
		}
		q.next = now.Add(q.Gap)
		return p
	}
	if p := q.ctrl.pop(); p != nil {
		q.stats.Dequeued++
		return p
	}
	if p := q.data.pop(); p != nil {
		q.stats.Dequeued++
		return p
	}
	if q.credit.len() > 0 {
		q.armKick()
	}
	return nil
}

// armKick schedules a port kick at the head credit's eligibility time;
// without it the pull-based transmitter would idle until the next Send.
func (q *CreditQueue) armKick() {
	if !q.bound || q.timer.Pending() {
		return
	}
	q.timer = q.eng.At(q.next, q.kick)
}

func (q *CreditQueue) Len() int { return q.data.len() + q.ctrl.len() + q.credit.len() }

func (q *CreditQueue) Bytes() int64 { return q.data.size() + q.ctrl.size() + q.credit.size() }

func (q *CreditQueue) Stats() *QueueStats { return &q.stats }
