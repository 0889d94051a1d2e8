package pkt

import (
	"strings"
	"testing"

	"pase/internal/check"
	"pase/internal/pool"
	"pase/internal/sim"
)

// idle reports how many packets a pool holds for reuse.
func idle(pl *Pool) int { return (*pool.List[Packet])(pl).Len() }

func TestPoolReusesAndZeroes(t *testing.T) {
	pl := PoolOf(sim.NewEngine())
	p := pl.Get()
	p.Flow, p.Seq, p.CE = 7, 3, true
	pl.Put(p)
	if !p.Released() {
		t.Fatal("a packet handed to Put must read as released")
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
	pl := PoolOf(sim.NewEngine())
	p := pl.Get()
	pl.Put(p)
	n := idle(pl)
	pl.Put(p)
	if idle(pl) != n {
		t.Fatalf("a second Put grew the free list from %d to %d", n, idle(pl))
	}
}

func TestPoolIgnoresLiterals(t *testing.T) {
	pl := PoolOf(sim.NewEngine())
	p := &Packet{Flow: 1}
	pl.Put(p)
	if idle(pl) != 0 || p.Released() || p.Flow != 1 {
		t.Fatal("a literal packet must pass through Put untouched")
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

// TestLateCheckerPanics: a pool reads Engine.Checked when it is made,
// so a checker attached afterwards would leave it recycling packets;
// AttachCheck refuses it.
func TestLateCheckerPanics(t *testing.T) {
	eng := sim.NewEngine()
	PoolOf(eng)
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "AttachCheck after") {
			t.Fatalf("late AttachCheck: recovered %q, want its panic", r)
		}
	}()
	eng.AttachCheck(check.New(nil))
}

func TestPoolAllocs(t *testing.T) {
	pl := PoolOf(sim.NewEngine())
	pl.Put(pl.Get())
	if allocs := testing.AllocsPerRun(1000, func() { pl.Put(pl.Get()) }); allocs != 0 {
		t.Errorf("warm Get+Put allocates %.1f times, want 0", allocs)
	}
}
