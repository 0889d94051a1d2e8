package transport

import (
	"pase/internal/pool"
	"pase/internal/sim"
)

// flowPool holds one engine's free flow records: the senders and
// receivers of finished flows, waiting for the next flow any stack on
// that engine starts. It is used by that engine's goroutine only (one
// pool per shard). A record comes back with its slices' backing arrays
// — a sender's segment record and retransmission queue, a receiver's
// arrival map — and a sender with the Control of its last life, which
// a factory may start over in place (ReuseControl).
//
// One pool per engine rather than per stack: one host's arrivals and
// completions rarely pair up, so per-host lists sit empty on the hosts
// that start flows and full on the ones that finish them.
type flowPool struct {
	eng       *sim.Engine
	senders   pool.List[Sender]
	receivers pool.List[receiver]
}

// flowPoolCap bounds each list so a burst of concurrent flows cannot
// pin memory for the rest of the run; records beyond it fall to the
// garbage collector.
const flowPoolCap = 1024

// newFlowPool makes an engine's flow pool. Records are made one at a
// time: a run allocates as many as it has flows in flight at its peak,
// and a slab would round that up by up to a slab of large records.
func newFlowPool(eng *sim.Engine) *flowPool {
	return &flowPool{eng: eng, senders: pool.New[Sender](1, flowPoolCap), receivers: pool.New[receiver](1, flowPoolCap)}
}

// putSender takes back a finished sender whose timers are stopped and
// whose completion hooks have run; putReceiver, the receiver of a
// finished flow. On a checked engine the record is poisoned and retired
// instead, so a touch after release panics (Sender.ended,
// receiver.onPacket) rather than acting on the flow that would have
// reused it.
func (pl *flowPool) putSender(s *Sender) {
	if pl.eng.Checked() {
		s.st = nil
		return
	}
	pl.senders.Put(s)
}

func (pl *flowPool) putReceiver(r *receiver) {
	if pl.eng.Checked() {
		r.st = nil
		return
	}
	pl.receivers.Put(r)
}
