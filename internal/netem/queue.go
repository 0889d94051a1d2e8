package netem

import (
	"pase/internal/check"
	"pase/internal/obs"
	"pase/internal/pkt"
)

// Queue is an egress queueing discipline. Enqueue either accepts the
// packet or drops it (possibly dropping a different, lower-priority
// packet to make room — "push-out"); all drops are recorded in Stats.
type Queue interface {
	// Enqueue offers p to the queue. It reports whether p itself was
	// accepted. Disciplines with push-out may accept p while dropping
	// another packet.
	Enqueue(p *pkt.Packet) bool
	// Dequeue removes and returns the next packet to transmit, or nil
	// if the queue is empty.
	Dequeue() *pkt.Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the number of queued bytes.
	Bytes() int64
	// Stats exposes the discipline's counters.
	Stats() *QueueStats
}

// Checkable is implemented by disciplines that support runtime
// invariant checking. AttachCheck installs the run's checker (nil
// detaches — the default, free state) together with a label locating
// the queue in violation reports; CheckConservation verifies the
// discipline's end-state packet accounting and is called when the
// queue goes quiet (end of run, or after a fuzzed op sequence).
type Checkable interface {
	AttachCheck(label string, c *check.Checker)
	CheckConservation()
}

// QueueStats counts what happened at one queue.
type QueueStats struct {
	Enqueued     int64
	Dequeued     int64
	Dropped      int64
	DroppedBytes int64
	Marked       int64 // packets that got CE set here
	// EnqueuedData / DroppedData count data-plane packets only —
	// Fig 4's loss-rate metric ignores ACKs and control traffic.
	EnqueuedData int64
	DroppedData  int64
	// EnqueuedCredit / DroppedCredit count ExpressPass credit packets;
	// credit drops are the shaper's rate-limit feedback, not loss.
	EnqueuedCredit int64
	DroppedCredit  int64
	MaxLen         int
}

// Add folds o into s: the counts add and MaxLen takes the larger, so
// a total over many queues reads MaxLen as "deepest any queue ever
// got".
func (s *QueueStats) Add(o *QueueStats) {
	s.Enqueued += o.Enqueued
	s.Dequeued += o.Dequeued
	s.Dropped += o.Dropped
	s.DroppedBytes += o.DroppedBytes
	s.Marked += o.Marked
	s.EnqueuedData += o.EnqueuedData
	s.DroppedData += o.DroppedData
	s.EnqueuedCredit += o.EnqueuedCredit
	s.DroppedCredit += o.DroppedCredit
	s.MaxLen = max(s.MaxLen, o.MaxLen)
}

func (s *QueueStats) drop(p *pkt.Packet) {
	s.Dropped++
	s.DroppedBytes += int64(p.Size)
	if p.Type == pkt.Data {
		s.DroppedData++
	}
	if p.Type == pkt.Credit {
		s.DroppedCredit++
	}
}

func (s *QueueStats) accept(p *pkt.Packet) {
	s.Enqueued++
	if p.Type == pkt.Data {
		s.EnqueuedData++
	}
	if p.Type == pkt.Credit {
		s.EnqueuedCredit++
	}
}

func (s *QueueStats) noteLen(n int) {
	if n > s.MaxLen {
		s.MaxLen = n
	}
}

// fifo is a slice-backed ring buffer of packets, the building block of
// the disciplines below. len(buf) is zero or a power of two — grow
// starts it at 16 and doubles it — so an index wraps with a mask, not a
// division.
type fifo struct {
	buf   []*pkt.Packet
	head  int
	n     int
	bytes int64
}

func (f *fifo) len() int    { return f.n }
func (f *fifo) size() int64 { return f.bytes }
func (f *fifo) empty() bool { return f.n == 0 }

func (f *fifo) push(p *pkt.Packet) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = p
	f.n++
	f.bytes += int64(p.Size)
}

func (f *fifo) pop() *pkt.Packet {
	if f.n == 0 {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	f.bytes -= int64(p.Size)
	return p
}

// popTail removes the newest packet (used for push-out drops).
func (f *fifo) popTail() *pkt.Packet {
	if f.n == 0 {
		return nil
	}
	i := (f.head + f.n - 1) & (len(f.buf) - 1)
	p := f.buf[i]
	f.buf[i] = nil
	f.n--
	f.bytes -= int64(p.Size)
	return p
}

func (f *fifo) grow() {
	size := len(f.buf) * 2
	if size == 0 {
		size = 16
	}
	nb := make([]*pkt.Packet, size)
	for i := 0; i < f.n; i++ {
		nb[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
	}
	f.buf = nb
	f.head = 0
}

// REDECN is the DCTCP-style active queue: a FIFO that sets the CE
// codepoint on an arriving ECN-capable packet whenever the
// instantaneous queue length is at or above the marking threshold K
// (marking on instantaneous occupancy is what DCTCP prescribes, in
// contrast to classic RED's averaged occupancy).
type REDECN struct {
	Limit int
	K     int
	// Occ, when set, records post-enqueue occupancy (packets).
	Occ      *obs.Histogram
	q        fifo
	stats    QueueStats
	chk      *check.Checker
	chkLabel string
}

// NewREDECN returns a marking FIFO with the given capacity and
// threshold (both in packets).
func NewREDECN(limit, k int) *REDECN {
	return &REDECN{Limit: limit, K: k}
}

// NewDropTail returns a plain FIFO bounded at limit packets: a REDECN
// whose threshold is its limit never marks, because Enqueue drops at
// the limit before it tests the threshold.
func NewDropTail(limit int) *REDECN { return NewREDECN(limit, limit) }

// AttachCheck implements Checkable.
func (r *REDECN) AttachCheck(label string, c *check.Checker) {
	r.chkLabel, r.chk = label, c
}

// CheckConservation implements Checkable.
func (r *REDECN) CheckConservation() {
	r.chk.Conservation(r.chkLabel, r.stats.Enqueued, r.stats.Dequeued, r.stats.Dropped, r.q.len())
}

// Enqueue implements Queue.
func (r *REDECN) Enqueue(p *pkt.Packet) bool {
	if r.chk != nil {
		r.chk.PktLive(r.chkLabel, uint64(p.Flow), p.Released())
	}
	if r.q.len() >= r.Limit {
		r.stats.drop(p)
		return false
	}
	if p.ECT && r.q.len() >= r.K {
		p.CE = true
		r.stats.Marked++
		if r.chk != nil {
			r.chk.ECNMark(r.chkLabel, uint64(p.Flow), r.q.len(), r.K)
		}
	}
	r.q.push(p)
	r.stats.accept(p)
	r.stats.noteLen(r.q.len())
	r.Occ.Observe(int64(r.q.len()))
	if r.chk != nil {
		r.chk.QueueCap(r.chkLabel, r.q.len(), r.Limit)
	}
	return true
}

// Dequeue implements Queue.
func (r *REDECN) Dequeue() *pkt.Packet {
	p := r.q.pop()
	if p != nil {
		r.stats.Dequeued++
	}
	return p
}

func (r *REDECN) Len() int           { return r.q.len() }
func (r *REDECN) Bytes() int64       { return r.q.size() }
func (r *REDECN) Stats() *QueueStats { return &r.stats }
