package pkt

import (
	"pase/internal/pool"
	"pase/internal/sim"
)

// origin records where a packet came from and whether it is still
// owned by someone. The zero value is a literal: a &Packet{} built by
// a test or a driver that manages its own packets, which pools ignore.
type origin uint8

const (
	literal  origin = iota // built outside any pool; never captured
	live                   // issued by Get, not yet released
	released               // handed back by Put; must not be touched
)

// Pool is the packet free list of one engine. It is used by that
// engine's goroutine only: there is one per shard, and a packet that
// crosses shards is released into the pool of the shard it dies on.
//
// A nil *Pool is valid: Get allocates and Put discards.
type Pool pool.List[Packet]

// poolCap bounds the free list, like the engine's record list, so a
// burst does not pin memory for the rest of the run; packets released
// beyond it fall to the garbage collector.
const poolCap = 16384

// PoolOf returns the packet pool of an engine, creating it on first
// use. Ports and stacks resolve it once at construction. On a checked
// engine the pool is in checked mode and retires every packet it is
// handed, so a stale holder keeps a released packet and pkt_live
// reports its next use.
func PoolOf(e *sim.Engine) *Pool {
	if pl, ok := e.Local.(*Pool); ok {
		return pl
	}
	limit := poolCap
	if e.Checked() {
		limit = 0
	}
	l := pool.New[Packet](32, limit)
	pl := (*Pool)(&l)
	e.Local = pl
	return pl
}

// Get returns a zeroed packet the caller owns.
func (pl *Pool) Get() *Packet {
	p := (*pool.List[Packet])(pl).Take()
	*p = Packet{origin: live}
	return p
}

// Put releases a packet at the point it dies: consumed by its
// destination, rejected by a queue, or lost on the wire. The caller
// must hold the only reference. Only a live pool-issued packet is
// captured — a literal is ignored and a second Put is a no-op.
func (pl *Pool) Put(p *Packet) {
	if p.origin != live {
		return
	}
	p.origin = released
	(*pool.List[Packet])(pl).Put(p)
}

// Released reports whether the packet has been handed back to a pool;
// any use of it afterwards is a bug (the pkt_live invariant).
func (p *Packet) Released() bool { return p.origin == released }
