package pool

import "testing"

type rec struct{ a, b int64 }

// TestSlabRefill: an empty list makes one slab per refill — one object
// for slab records — and hands out distinct records.
func TestSlabRefill(t *testing.T) {
	const slab = 8
	l := New[rec](slab, 1024)
	// AllocsPerRun makes one warm-up run and ten measured ones.
	taken := make([]*rec, 0, 1+11*slab)
	taken = append(taken, l.Take()) // the first refill also sizes the free list itself
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < slab; i++ {
			taken = append(taken, l.Take())
		}
	})
	if allocs != 1 {
		t.Fatalf("taking a slab's worth of records allocated %.0f objects, want 1", allocs)
	}
	seen := make(map[*rec]bool)
	for _, x := range taken {
		seen[x] = true
	}
	if len(seen) != len(taken) {
		t.Fatalf("%d takes handed out %d distinct records", len(taken), len(seen))
	}
}

// TestPutPastCapDrops: a full list leaves further records to the
// garbage collector, and Take hands back only what it kept.
func TestPutPastCapDrops(t *testing.T) {
	l := New[rec](4, 3)
	xs := []*rec{new(rec), new(rec), new(rec), new(rec), new(rec)}
	for _, x := range xs {
		l.Put(x)
	}
	if l.Len() != 3 {
		t.Fatalf("list holds %d records, want its cap 3", l.Len())
	}
	for i := 2; i >= 0; i-- {
		if got := l.Take(); got != xs[i] {
			t.Fatalf("take %d returned a record it was not kept (want xs[%d])", 2-i, i)
		}
	}
	for _, x := range xs[3:] {
		if got := l.Take(); got == x {
			t.Fatal("a record Put past the cap came back")
		}
	}
}

// TestNilAndZeroListAllocate: a nil list and a zero List make a fresh
// zero record on every Take and keep nothing Put.
func TestNilAndZeroListAllocate(t *testing.T) {
	var zero List[rec]
	for name, l := range map[string]*List[rec]{"nil": nil, "zero": &zero} {
		a := l.Take()
		a.a = 7
		l.Put(a)
		if b := l.Take(); b == a || *b != (rec{}) {
			t.Fatalf("%s list: Take returned %p %+v after Put of %p, want a fresh zero record", name, b, *b, a)
		}
		if l.Len() != 0 {
			t.Fatalf("%s list: Len %d, want 0", name, l.Len())
		}
	}
}

// TestCheckedListRetires: in checked mode (cap 0) nothing Put is handed
// out again, while the list keeps serving fresh records from its slabs.
func TestCheckedListRetires(t *testing.T) {
	l := New[rec](4, 0)
	given := make(map[*rec]bool)
	for i := 0; i < 64; i++ {
		x := l.Take()
		if given[x] {
			t.Fatalf("take %d: a checked list handed back a record it was given", i)
		}
		x.a = int64(i)
		given[x] = true
		l.Put(x)
	}
	if l.Len() != 0 {
		t.Fatalf("a checked list kept %d records", l.Len())
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 4; i++ {
			l.Put(l.Take())
		}
	}); allocs != 1 {
		t.Fatalf("a checked list allocated %.0f objects per slab of takes, want 1", allocs)
	}
}

// TestTakePutAllocFree: a warm Take/Put pair allocates nothing.
func TestTakePutAllocFree(t *testing.T) {
	l := New[rec](32, 1024)
	l.Put(l.Take())
	if allocs := testing.AllocsPerRun(1000, func() { l.Put(l.Take()) }); allocs != 0 {
		t.Fatalf("warm Take+Put allocates %.1f times, want 0", allocs)
	}
}
