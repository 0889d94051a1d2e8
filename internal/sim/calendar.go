package sim

import (
	"math/bits"
	"slices"

	"pase/internal/obs"
)

// The calendar is a window of fixed-width time buckets in front of the
// 4-ary heap. A fig-9a DCTCP run files 95 % of its events at most
// 64 µs ahead — link, queue and pacing delays — and almost all the
// rest 8–16 ms ahead, its retransmission timers. So the window covers
// bucketCount × 2^bucketShift ns ≈ 131 µs: the short horizons land in
// a bucket in O(1), and only the timers, most of them stopped before
// they fire, pay a heap sift.
//
//   - Bucket b holds the entries with at>>bucketShift == b, unsorted, as
//     an intrusive list through event.next, in slot b % bucketCount.
//   - The current bucket, curIdx, lives sorted in cur and drains from
//     pos. An entry at or behind it (RunUntil may stop the clock short
//     of a bucket the calendar already peeked at) is inserted there in
//     order, so cur always holds the least entries.
//   - Buckets curIdx+1 … curIdx+bucketCount-1 form the window; later
//     entries wait in the heap, and each advance of curIdx migrates the
//     ones the window has come to cover.
//
// Every entry ends in cur and leaves it in the engine's total order —
// (at, head, seq), or rank lineage on ranked engines — so the fire
// order is the heap's, and so is the entry count: a cancelled entry
// leaves only when it reaches the front or a compaction runs.
const (
	bucketShift = 8   // 256 ns buckets: a few entries each at fig-9a depth
	bucketCount = 512 // a power of two; ×256 ns ≈ 131 µs of window
)

type calendar struct {
	cur     []*event // the current bucket, sorted; cur[pos:] is pending
	pos     int
	curIdx  int64 // bucket number of cur
	inWin   int   // entries in buckets
	n       int   // entries in cur, buckets and over, cancelled ones included
	buckets [bucketCount]*event
	occ     [bucketCount / 64]uint64 // bit s set: buckets[s] is non-empty
	over    eventHeap                // entries past the window
	// overflow counts pushes past the window (sim/scheduled_overflow);
	// nil-safe.
	overflow *obs.Counter
}

// push files ev by its bucket: into cur in order, onto a window
// bucket's list, or into the heap.
func (c *calendar) push(ev *event) {
	c.n++
	b := int64(ev.at) >> bucketShift
	switch {
	case b <= c.curIdx:
		c.cur = append(c.cur, ev)
		i := len(c.cur) - 1
		for ; i > c.pos && less(ev, c.cur[i-1]); i-- {
			c.cur[i] = c.cur[i-1]
		}
		c.cur[i] = ev
	case b < c.curIdx+bucketCount:
		c.link(ev, b)
	default:
		c.over.push(ev)
		c.overflow.Inc()
	}
}

func (c *calendar) link(ev *event, b int64) {
	s := b & (bucketCount - 1)
	ev.next, c.buckets[s] = c.buckets[s], ev
	c.occ[s/64] |= 1 << (s % 64)
	c.inWin++
}

// nextBucket returns the first non-empty bucket at or after b, reading
// the occupancy bits a word at a time so a sparse window costs a few
// words, not a scan of empty buckets. The window must hold an entry.
func (c *calendar) nextBucket(b int64) int64 {
	s := int(b & (bucketCount - 1))
	w := s / 64
	word := c.occ[w] &^ (1<<(s%64) - 1)
	for word == 0 {
		w = (w + 1) % len(c.occ)
		word = c.occ[w]
	}
	return b + int64((w*64+bits.TrailingZeros64(word)-s)&(bucketCount-1))
}

// min returns the least entry, cancelled or not, or nil when the
// calendar is empty.
func (c *calendar) min() *event {
	if c.pos == len(c.cur) && !c.advance() {
		return nil
	}
	return c.cur[c.pos]
}

// pop removes the entry min returned.
func (c *calendar) pop() {
	c.cur[c.pos] = nil
	c.pos++
	c.n--
}

// advance makes the next non-empty bucket current, jumping straight to
// the heap's least entry when the window is empty. It reports false
// when the calendar is.
func (c *calendar) advance() bool {
	c.cur, c.pos = c.cur[:0], 0
	if c.n == 0 {
		return false
	}
	var b int64
	if c.inWin == 0 {
		b = int64(c.over[0].at) >> bucketShift
	} else {
		b = c.nextBucket(c.curIdx + 1)
	}
	c.curIdx = b
	for len(c.over) > 0 && int64(c.over[0].at)>>bucketShift < b+bucketCount {
		ev := c.over[0]
		c.over.popTop()
		c.link(ev, int64(ev.at)>>bucketShift)
	}
	// The list is newest first; reversed, same-instant entries are in
	// scheduling order already.
	s := b & (bucketCount - 1)
	for ev := c.buckets[s]; ev != nil; ev = ev.next {
		c.cur = append(c.cur, ev)
		c.inWin--
	}
	c.buckets[s] = nil
	c.occ[s/64] &^= 1 << (s % 64)
	slices.Reverse(c.cur)
	if len(c.cur) > 32 {
		slices.SortFunc(c.cur, func(a, b *event) int {
			if less(a, b) {
				return -1
			}
			return 1
		})
		return true
	}
	for i := 1; i < len(c.cur); i++ {
		ev, j := c.cur[i], i
		for ; j > 0 && less(ev, c.cur[j-1]); j-- {
			c.cur[j] = c.cur[j-1]
		}
		c.cur[j] = ev
	}
	return true
}

// filter drops the entries keep rejects from all three parts, in
// place; the heap is re-established.
func (c *calendar) filter(keep func(*event) bool) {
	live := c.cur[:0]
	for _, ev := range c.cur[c.pos:] {
		if keep(ev) {
			live = append(live, ev)
		}
	}
	clear(c.cur[len(live):])
	c.cur, c.pos = live, 0
	for w, word := range c.occ { // the occupied buckets only
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			for p := &c.buckets[i]; *p != nil; {
				if ev := *p; keep(ev) {
					p = &ev.next
				} else {
					*p, ev.next = ev.next, nil
					c.inWin--
				}
			}
			if c.buckets[i] == nil {
				c.occ[w] &^= 1 << (i % 64)
			}
		}
	}
	over := c.over[:0]
	for _, ev := range c.over {
		if keep(ev) {
			over = append(over, ev)
		}
	}
	clear(c.over[len(over):])
	c.over = over
	c.over.heapify()
	c.n = len(c.cur) + c.inWin + len(c.over)
}
