package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pase/internal/check"
)

// A rankProgram is a random event program that runs unchanged on a
// plain Engine and on a ShardedEngine: a set of actors (actor a lives
// on shard a % shards), each firing events whose behaviour is a pure
// function of the event's id — so the program does the same thing in
// every run as long as every actor sees its events in the same order,
// which is exactly what rank mode promises. Delays come from a small
// table, so timestamp ties between siblings, cousins and events from
// different shards are the common case, not the exception.
type rankProgram struct {
	seed   uint64
	actors int
	tailAt Time // the sharded driver enters the serial tail here
	stops  bool // an event at or past tailAt may stop the run
}

const rankLookahead = 10

func newRankProgram(seed uint64) rankProgram {
	r := splitmix(seed)
	return rankProgram{
		seed:   seed,
		actors: 2 + int(r.next()%5),
		tailAt: Time(r.next() % 120),
		stops:  r.next()%2 == 0,
	}
}

type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

type firing struct {
	actor int
	id    uint64
}

// rankRun is one execution of a program. se is nil on the plain
// engine. Everything indexed by shard is touched only by that shard's
// goroutine.
type rankRun struct {
	p      rankProgram
	eng    *Engine
	se     *ShardedEngine
	shards int
	log    [][]firing // per shard, in execution order
	last   []Timer    // per actor: its most recent plain child
}

func (r *rankRun) shardOf(actor int) int { return actor % r.shards }

func (r *rankRun) engOf(actor int) *Engine {
	if r.se == nil {
		return r.eng
	}
	return r.se.Shard(r.shardOf(actor))
}

// send delivers fn to another actor after delay (>= the lookahead):
// one Schedule call on a shared engine, the same child slot captured
// and handed off across shards.
func (r *rankRun) send(from, to int, delay Duration, fn func()) {
	e := r.engOf(from)
	ss, ds := r.shardOf(from), r.shardOf(to)
	if r.se == nil || ss == ds {
		e.Schedule(delay, fn)
		return
	}
	ctx, k := e.ChildSlot()
	r.se.Handoff(ss, ds, e.Now().Add(delay), ctx, k, fn)
}

func (r *rankRun) stop() {
	if r.se == nil {
		r.eng.Stop()
	} else {
		r.se.RequestStop()
	}
}

var rankDelays = [...]Duration{0, 0, 0, 1, 1, 2, 5, rankLookahead}

// fire is the body of every event: log, then run a handful of
// operations drawn from the event's own id. budget bounds the lineage:
// each child gets a share of what is left.
func (r *rankRun) fire(actor int, id uint64, budget int) {
	s := r.shardOf(actor)
	r.log[s] = append(r.log[s], firing{actor, id})
	e := r.engOf(actor)
	rng := splitmix(id ^ r.p.seed)
	nops := int(rng.next() % 5)
	if budget <= 0 || nops == 0 {
		return
	}
	share := (budget - 1) / nops
	for op := 0; op < nops; op++ {
		cid := id*0x100000001b3 + uint64(op) + 1
		child := func(a int, id uint64) func() { return func() { r.fire(a, id, share) } }
		delay := rankDelays[rng.next()%uint64(len(rankDelays))]
		switch rng.next() % 10 {
		case 0, 1, 2:
			r.last[actor] = e.Schedule(delay, child(actor, cid))
		case 3:
			// Strictly later: a head event at the running event's own
			// instant would fire after an event it sorts before, which
			// is the one thing rank order cannot express (rank.go).
			e.AtHead(e.Now().Add(delay+1), child(actor, cid))
		case 4:
			// Cancel children inside the event that scheduled them —
			// enough of them, sometimes, to compact the calendar and
			// drop every calendar hold on the executing event's node.
			n := 1 + int(rng.next()%3)
			if rng.next()%8 == 0 {
				n = 3 * compactMinDead
			}
			for i := 0; i < n; i++ {
				e.Schedule(delay, child(actor, cid+uint64(i)<<32)).Stop()
			}
		case 5:
			// Cancel across events: which child this hits depends on the
			// order the actor's events ran in.
			r.last[actor].Stop()
		case 6, 7, 8:
			// Several handoffs from one event to one destination.
			to := int(rng.next() % uint64(r.p.actors))
			d := rankLookahead + Duration(rng.next()%2)*rankLookahead/2
			n := 1 + int(rng.next()%3)
			for i := 0; i < n; i++ {
				r.send(actor, to, d, child(to, cid+uint64(i)<<32))
			}
		case 9:
			if r.p.stops && e.Now() >= r.p.tailAt {
				r.stop()
			}
		}
	}
}

// run executes the program on shards shards (0 = the plain engine) and
// returns the run for inspection.
func (p rankProgram) run(t testing.TB, shards int, checked bool) *rankRun {
	t.Helper()
	r := &rankRun{p: p, shards: shards, last: make([]Timer, p.actors)}
	if shards == 0 {
		r.shards, r.eng = 1, NewEngine()
	} else {
		se, err := NewShardedEngine(shards, rankLookahead)
		if err != nil {
			t.Fatal(err)
		}
		r.se = se
		if checked {
			for i := 0; i < shards; i++ {
				se.Shard(i).AttachCheck(check.New(nil))
			}
		}
	}
	r.log = make([][]firing, r.shards)
	rng := splitmix(p.seed)
	for a := 0; a < p.actors; a++ {
		for j := 0; j < 3; j++ {
			a, id := a, rng.next()
			r.engOf(a).At(Time(rng.next()%4), func() { r.fire(a, id, 120) })
		}
	}
	if r.se == nil {
		if err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	defer r.se.Close()
	for {
		at, ok := r.se.MinPendingTime()
		if !ok || at.Add(rankLookahead) > p.tailAt {
			break
		}
		r.se.StepWindow(at.Add(rankLookahead))
	}
	r.se.RunTail()
	return r
}

// checkRankOrder runs one program serially and sharded and compares
// each shard's fire order with the serial order of that shard's
// actors; it then checks the recycling invariants on the sharded run.
func checkRankOrder(t testing.TB, seed uint64, shards int, checked bool) {
	t.Helper()
	p := newRankProgram(seed)
	ref := p.run(t, 0, false)
	got := p.run(t, shards, checked)
	for s := 0; s < shards; s++ {
		var want []firing
		for _, f := range ref.log[0] {
			if f.actor%shards == s {
				want = append(want, f)
			}
		}
		if len(got.log[s]) != len(want) {
			t.Fatalf("seed %#x shards %d: shard %d fired %d events, serial fired %d of its actors' (tailAt %d, stops %v)",
				seed, shards, s, len(got.log[s]), len(want), p.tailAt, p.stops)
		}
		for i := range want {
			if got.log[s][i] != want[i] {
				t.Fatalf("seed %#x shards %d: shard %d event %d is %+v, serial order has %+v",
					seed, shards, s, i, got.log[s][i], want[i])
			}
		}
	}
	stopped := got.se.stopReq.Load()
	for s := 0; s < shards; s++ {
		e := got.se.Shard(s)
		if e.rankLive < 0 || (!stopped && e.rankLive != 0) {
			t.Fatalf("seed %#x shards %d: shard %d has %d rank nodes outstanding after the run (stopped %v)",
				seed, shards, s, e.rankLive, stopped)
		}
		// Every slab is whole again: created == free.
		if free := rankFreeLen(e); !stopped && !checked && free%rankSlab != 0 {
			t.Fatalf("seed %#x shards %d: shard %d free list holds %d nodes, not a whole number of slabs",
				seed, shards, s, free)
		}
	}
}

func rankFreeLen(e *Engine) (n int) {
	for r := e.rankFree; r != nil; r = r.ctx {
		n++
	}
	return n
}

// TestShardedRankOrder is the differential safety net under rank mode:
// random programs fire in the same order on a plain engine and on 2-4
// shards, with and without worker goroutines, recycled or (checked)
// poisoned nodes.
func TestShardedRankOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			for shards := 2; shards <= 4; shards++ {
				checkRankOrder(t, seed*0x9e3779b9, shards, seed%3 == 0)
			}
		}
	}
}

func FuzzRankOrder(f *testing.F) {
	for _, seed := range []uint64{0, 1, 0xdecafbad, 1 << 63} {
		f.Add(seed, uint8(2))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shards uint8) {
		checkRankOrder(t, seed, 2+int(shards%3), seed%2 == 0)
	})
}

// TestShardedRankedWindowAllocs pins a steady ranked window at zero
// allocations: events that reschedule themselves (a rank node each),
// hand off under a captured slot (a stand-in each) and meet a
// stamping barrier every window run entirely on recycled records.
func TestShardedRankedWindowAllocs(t *testing.T) {
	const lookahead = 100
	se, err := NewShardedEngine(2, lookahead)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	e0 := se.Shard(0)
	a, arg := &nopAction{}, new(int)
	var tick func()
	tick = func() {
		e0.Schedule(lookahead, tick)
		ctx, k := e0.ChildSlot()
		se.HandoffAction(0, 1, e0.Now().Add(lookahead), ctx, k, a, arg)
	}
	for i := 0; i < 32; i++ {
		e0.Schedule(Duration(i), tick)
	}
	window := func() { se.StepWindow(se.Now().Add(lookahead)) }
	for i := 0; i < 4; i++ {
		window()
	}
	before := se.Shard(1).Executed
	if allocs := testing.AllocsPerRun(200, window); allocs != 0 {
		t.Errorf("steady ranked window allocates %.1f times, want 0", allocs)
	}
	if se.Shard(1).Executed == before {
		t.Fatal("handed-off actions never fired")
	}
	if live := e0.rankLive; live > 64 {
		t.Errorf("shard 0 holds %d rank nodes with 32 events pending: nodes are not coming back", live)
	}
}

// TestRankPoison: on a checked engine a released node stays out of
// circulation and any comparison against it panics; on an unchecked
// one it is the next node handed out.
func TestRankPoison(t *testing.T) {
	var ctr uint64
	for _, checked := range []bool{false, true} {
		e := NewEngine()
		e.EnableRank(&ctr)
		if checked {
			e.AttachCheck(check.New(nil))
		}
		a, b := e.newRank(), e.newRank()
		a.gidx, b.gidx = 1, 2
		b.release()
		if reused := e.newRank() == b; reused == checked {
			t.Errorf("checked=%v: released node reused = %v", checked, reused)
		}
		if !checked {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "after its last release") {
					t.Errorf("comparing a released node: recovered %v, want the use-after-release panic", r)
				}
			}()
			rankLess(a, 0, b, 0)
		}()
	}
}

// explodeOnShard1 is the faulting frame TestShardedPanicKeepsStack
// looks for.
func explodeOnShard1() {
	var p *int
	*p = 1
}

// TestShardedPanicKeepsStack: a panic inside a window reaches the
// caller of StepWindow with the stack it happened on, whichever
// goroutine ran the shard.
func TestShardedPanicKeepsStack(t *testing.T) {
	for _, forceWorkers := range []bool{false, true} {
		func() {
			se, err := NewShardedEngine(2, 100)
			if err != nil {
				t.Fatal(err)
			}
			if forceWorkers {
				se.workerDone = make([]paddedU64, 1)
			}
			defer se.Close()
			se.Shard(1).At(10, explodeOnShard1)
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"shard 1", "nil pointer", "explodeOnShard1"} {
					if !strings.Contains(msg, want) {
						t.Errorf("workers=%v: panic message lacks %q:\n%s", forceWorkers, want, msg)
					}
				}
			}()
			se.StepWindow(100)
		}()
	}
}
