package netem

import (
	"strconv"

	"pase/internal/check"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// Port is one direction of a link: an egress queue plus a transmitter
// that clocks packets out at the port rate, followed by the link's
// propagation delay. Full-duplex links are a pair of connected ports.
type Port struct {
	eng   *sim.Engine
	pool  *pkt.Pool // eng's packet free list: packets that die here return to it
	queue Queue
	rate  BitRate
	delay sim.Duration

	peer  *Port
	owner Node

	// busy is set while a transmission runs; done is the key of its
	// completion, filed as a txDone event only once a packet waits for
	// the line (see pump).
	busy bool
	done sim.Slot

	// remote, when set, replaces the in-line delivery Schedule with a
	// cross-shard handoff (sharded runs): the packet's arrival at the
	// peer is buffered by the coordinator and released at the next
	// barrier, carrying the rank slot captured here so it sorts on the
	// destination shard exactly where the serial engine would have put
	// it. The propagation delay guarantees the delivery time is at
	// least one lookahead past the transmitting window's start.
	remote func(at sim.Time, ctx *sim.Rank, k uint64, a sim.Action, arg any)

	// chk, when non-nil, verifies that no released packet is sent
	// (pkt_live). Nil (the default) costs one pointer test per Send.
	chk *check.Checker

	// Faults, when set, lets a fault injector pause the transmitter
	// (link down) and discard transmitted packets (loss/corruption).
	Faults PortFaults

	// TxPackets / TxBytes count what was actually transmitted.
	TxPackets int64
	TxBytes   int64
	// busyTime accumulates transmitter-active time for utilization.
	busyTime sim.Duration
}

// PortFaults is the hook a fault injector installs on a port. Blocked
// pauses the transmitter before it dequeues (packets keep queueing and
// drain when the outage ends — see Kick); Lose is consulted after a
// packet consumed its serialization time and discards it in flight.
type PortFaults interface {
	Blocked(pt *Port) bool
	Lose(pt *Port, p *pkt.Packet) bool
}

// BlackholeObserver is optionally implemented by a PortFaults hook
// that wants drops caused by an outage counted separately: when the
// egress queue rejects a packet while the link is Blocked, the drop is
// a blackhole (the queue backed up because the transmitter is paused),
// not ordinary congestion overflow, and Send reports it here.
type BlackholeObserver interface {
	Blackholed(pt *Port, p *pkt.Packet)
}

// NewPort builds a port owned by node, draining q at rate with the
// given one-way propagation delay.
func NewPort(eng *sim.Engine, owner Node, q Queue, rate BitRate, delay sim.Duration) *Port {
	return &Port{eng: eng, pool: pkt.PoolOf(eng), owner: owner, queue: q, rate: rate, delay: delay}
}

// AttachCheck installs the run's invariant checker on the port and,
// labelled with the port's name, on its queue (nil detaches).
func (pt *Port) AttachCheck(c *check.Checker) {
	pt.chk = c
	if cq, ok := pt.queue.(Checkable); ok {
		cq.AttachCheck(pt.Name(), c)
	}
}

// Name labels the port for diagnostics by the nodes at its two ends
// ("tor0->agg0"). It is formatted on demand — a run that neither
// traces, checks nor panics never asks.
func (pt *Port) Name() string {
	name := nodeName(pt.owner) + "->"
	if pt.peer != nil {
		name += nodeName(pt.peer.owner)
	}
	return name
}

func nodeName(n Node) string {
	if named, ok := n.(interface{ Name() string }); ok {
		return named.Name()
	}
	return "node" + strconv.Itoa(int(n.ID()))
}

// Connect wires two ports as the two directions of one full-duplex link.
func Connect(a, b *Port) {
	a.peer = b
	b.peer = a
}

// Engine returns the engine the port's transmitter is clocked by (the
// owner's shard engine in sharded runs).
func (pt *Port) Engine() *sim.Engine { return pt.eng }

// Queue returns the port's egress queue.
func (pt *Port) Queue() Queue { return pt.queue }

// Rate returns the port's transmit rate.
func (pt *Port) Rate() BitRate { return pt.rate }

// PropDelay returns the link's one-way propagation delay.
func (pt *Port) PropDelay() sim.Duration { return pt.delay }

// Send offers a packet to the egress queue and kicks the transmitter.
// Drops are absorbed by the queue discipline (and its stats); a
// rejected packet dies here and returns to the pool.
func (pt *Port) Send(p *pkt.Packet) {
	if pt.peer == nil {
		panic("netem: Send on unconnected port " + pt.Name())
	}
	if pt.chk != nil && p.Released() {
		pt.chk.PktLive(pt.Name(), uint64(p.Flow), true)
	}
	p.EnqAt = pt.eng.Now()
	if !pt.queue.Enqueue(p) {
		if pt.Faults != nil && pt.Faults.Blocked(pt) {
			if bo, ok := pt.Faults.(BlackholeObserver); ok {
				bo.Blackholed(pt, p)
			}
		}
		pt.pool.Put(p)
		return
	}
	pt.pump()
}

// The port's two link events are pre-bound sim.Actions on the port
// itself — same record, same tie-break slot as the closures they
// replace, and nothing to allocate per hop. txDone fires on the
// transmitting port when serialization ends, if a packet waits for
// the line by then; arrival fires on the receiving port (on its
// owner's engine, also across shards) when the packet it carries
// lands.
type (
	txDone  Port
	arrival Port
)

func (a *txDone) Fire(any) {
	pt := (*Port)(a)
	pt.busy = false
	pt.pump()
}

func (a *arrival) Fire(p any) {
	pt := (*Port)(a)
	pt.owner.Receive(p.(*pkt.Packet), pt)
}

// pump starts a transmission if the line is idle and a packet waits.
//
// A transmission reserves its completion's slot in the event order
// and files the txDone event only when there is work for it: a packet
// still queued behind this one, a packet lost on the wire (so a run
// that drains still ends on the completion's clock), or a Send or Kick
// that meets the busy line before the slot's key. One that comes after
// the key clears busy itself and goes on, which is all the txDone would
// have done: it would have found the queue empty.
func (pt *Port) pump() {
	if pt.busy {
		switch {
		case pt.done.Filed(): // txDone clears busy and pumps
			return
		case !pt.eng.Passed(pt.done):
			if pt.queue.Len() > 0 {
				pt.eng.File(&pt.done, (*txDone)(pt), nil)
			}
			return
		}
		pt.busy = false
	}
	if pt.Faults != nil && pt.Faults.Blocked(pt) {
		return
	}
	p := pt.queue.Dequeue()
	if p == nil {
		return
	}
	pt.busy = true
	ser := pt.rate.Serialize(p.Size)
	pt.busyTime += ser
	pt.TxPackets++
	pt.TxBytes += int64(p.Size)
	// Line becomes free after serialization; the packet lands at the
	// peer one propagation delay later.
	pt.done = pt.eng.Reserve(ser, (*txDone)(pt), nil)
	if pt.queue.Len() > 0 {
		pt.eng.File(&pt.done, (*txDone)(pt), nil)
	}
	if pt.Faults != nil && pt.Faults.Lose(pt, p) {
		// Dropped or corrupted on the wire: bandwidth was consumed but
		// the packet never reaches the peer.
		pt.eng.File(&pt.done, (*txDone)(pt), nil)
		pt.pool.Put(p)
		return
	}
	if pt.remote != nil {
		// Cross-shard link: consume the same child slot the Schedule
		// call below would have, so the delivered event keeps its
		// serial rank, and hand the delivery to the coordinator. The
		// packet changes owner with it: the peer's shard releases it.
		ctx, k := pt.eng.ChildSlot()
		pt.remote(pt.eng.Now().Add(ser+pt.delay), ctx, k, (*arrival)(pt.peer), p)
		return
	}
	pt.eng.ScheduleAction(ser+pt.delay, (*arrival)(pt.peer), p)
}

// SetRemote installs the cross-shard delivery hook; sharded runs call
// it on the transmitting port of every cut link and forward to
// ShardedEngine.HandoffAction.
func (pt *Port) SetRemote(f func(at sim.Time, ctx *sim.Rank, k uint64, a sim.Action, arg any)) {
	pt.remote = f
}

// Kick restarts a paused transmitter; the fault injector calls it when
// a link outage ends so queued packets resume draining.
func (pt *Port) Kick() { pt.pump() }

// BusyTime returns the accumulated transmitter-active time; divided by
// elapsed simulated time it gives the port's utilization.
func (pt *Port) BusyTime() sim.Duration { return pt.busyTime }
