// Package pool is the one free list the simulator recycles records
// through: calendar events, packets, arbitrator entries and replies,
// flow senders and receivers, ExpressPass credit states, flow traces.
package pool

// List is a free list of *T records for one goroutine (one engine, one
// arbitration system, one trace recorder), so it takes no lock. An empty
// list refills from a fresh slab, so a working set growing to its size
// costs one object per slab; at most cap idle records are kept, so a
// burst does not pin memory for the rest of the run.
//
// A list of cap 0 is in checked mode: Put retires every record instead
// of keeping it, so none is handed out twice and a stale holder reads
// its kind's poison marker, not the next owner's state. Checked mode is
// the cap rather than a flag of its own so that Put, on the hot paths,
// tests one bound.
//
// The list never writes a record: each kind resets its own, because
// some keep fields across lives (an event its generation, a sender its
// backing arrays and Control, a trace its span and mark arrays).
//
// A nil or zero List is the allocator: Take makes a fresh record and
// Put leaves it to the garbage collector. The header packs into 32
// bytes because owners embed it in structs every run allocates.
type List[T any] struct {
	free []*T
	cap  int32
	slab uint16
}

// New returns an empty list that refills slab records at a time
// (slab < 2^16) and keeps at most cap idle ones (cap < 2^31), by value
// for its owner to hold.
func New[T any](slab, cap int) List[T] {
	return List[T]{slab: uint16(slab), cap: int32(cap)}
}

// Take returns a record the caller owns: the last one Put, or a fresh
// zero one.
//
// Take stays within the compiler's inlining budget, so the hot paths
// drawing a record per event or packet pay no call. That is why the
// refill loop is inline: in a function of its own it is inlined here
// anyway and costs more of the budget, not less.
func (l *List[T]) Take() *T {
	if l == nil {
		return new(T)
	}
	if len(l.free) == 0 {
		slab := make([]T, max(l.slab, 1))
		for i := range slab {
			l.free = append(l.free, &slab[i])
		}
	}
	n := len(l.free) - 1
	x := l.free[n]
	l.free[n] = nil
	l.free = l.free[:n]
	return x
}

// Put hands back a record its caller held the only reference to. It is
// kept for the next Take unless the list is full.
func (l *List[T]) Put(x *T) {
	if l == nil || len(l.free) >= int(l.cap) {
		return
	}
	l.free = append(l.free, x)
}

// Len reports how many idle records the list holds.
func (l *List[T]) Len() int {
	if l == nil {
		return 0
	}
	return len(l.free)
}
