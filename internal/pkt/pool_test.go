package pkt

import (
	"testing"

	"pase/internal/sim"
)

func TestPoolReusesAndZeroes(t *testing.T) {
	pl := &Pool{}
	p := pl.Get()
	p.Flow, p.Seq, p.CE, p.Ctrl = 7, 3, true, "hdr"
	pl.Put(p)
	if !p.Released() {
		t.Fatal("a packet handed to Put must read as released")
	}
	if p.Ctrl != nil {
		t.Fatal("Put must drop the Ctrl reference at once")
	}
	q := pl.Get()
	if q != p {
		t.Fatal("Get should reissue the released packet")
	}
	if *q != (Packet{origin: live}) {
		t.Fatalf("reissued packet not zeroed: %+v", *q)
	}
}

func TestPoolDoublePutIsNoOp(t *testing.T) {
	pl := &Pool{}
	p := pl.Get()
	pl.Put(p)
	n := len(pl.free)
	pl.Put(p)
	if len(pl.free) != n {
		t.Fatalf("a second Put grew the free list from %d to %d", n, len(pl.free))
	}
}

func TestPoolIgnoresLiterals(t *testing.T) {
	pl := &Pool{}
	p := &Packet{Flow: 1}
	pl.Put(p)
	if len(pl.free) != 0 || p.Released() || p.Flow != 1 {
		t.Fatal("a literal packet must pass through Put untouched")
	}
}

func TestPoolCap(t *testing.T) {
	pl := &Pool{}
	ps := make([]*Packet, poolCap+10)
	for i := range ps {
		ps[i] = pl.Get()
	}
	for _, p := range ps {
		pl.Put(p)
	}
	if len(pl.free) != poolCap {
		t.Fatalf("free list = %d, want the cap %d", len(pl.free), poolCap)
	}
	if !ps[len(ps)-1].Released() {
		t.Fatal("a packet released past the cap is still released")
	}
}

func TestNilPool(t *testing.T) {
	var pl *Pool
	p := pl.Get()
	if p == nil || p.Released() {
		t.Fatal("nil pool must still issue a live packet")
	}
	pl.Put(p)
	if !p.Released() {
		t.Fatal("nil pool must still mark the packet released")
	}
}

func TestPoolOfIsPerEngine(t *testing.T) {
	a, b := sim.NewEngine(), sim.NewEngine()
	if PoolOf(a) != PoolOf(a) {
		t.Fatal("one engine, two pools")
	}
	if PoolOf(a) == PoolOf(b) {
		t.Fatal("two engines share a pool")
	}
}

func TestPoolAllocs(t *testing.T) {
	pl := &Pool{}
	pl.Put(pl.Get())
	if allocs := testing.AllocsPerRun(1000, func() { pl.Put(pl.Get()) }); allocs != 0 {
		t.Errorf("warm Get+Put allocates %.1f times, want 0", allocs)
	}
	// A cold pool grows by slabs: far fewer objects than packets.
	cold := testing.AllocsPerRun(10, func() {
		pl := &Pool{}
		for i := 0; i < 4*slabSize; i++ {
			pl.Get()
		}
	})
	if cold > 16 {
		t.Errorf("issuing %d packets from a cold pool allocates %.0f objects, want slabs", 4*slabSize, cold)
	}
}
