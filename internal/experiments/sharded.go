package experiments

import (
	"fmt"
	"sync/atomic"

	"pase/internal/metrics"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
	"pase/internal/workload"
)

// What a multi-shard run needs beyond RunPoint's shared wiring:
// cross-shard port proxies on the cut links, per-shard record buffers,
// and the window/tail drive loop in place of Engine.Run.

// bufSink buffers flow records on one shard; the coordinator drains
// it into the driver's sink at every barrier. Summarize/CDF are never
// called on it.
type bufSink struct {
	recs []metrics.FlowRecord
}

func (b *bufSink) Add(r metrics.FlowRecord)         { b.recs = append(b.recs, r) }
func (b *bufSink) Summarize() metrics.Summary       { panic("experiments: bufSink.Summarize") }
func (b *bufSink) CDF(int) []metrics.CDFPoint       { panic("experiments: bufSink.CDF") }
func (b *bufSink) take() (out []metrics.FlowRecord) { out, b.recs = b.recs, b.recs[:0]; return }

// cutLinks turns the links whose endpoints live on different shards
// into cross-shard proxies: the transmitting port hands deliveries to
// the coordinator instead of scheduling on the (foreign) destination
// engine. The minimum propagation delay over the cut is the causality
// bound the lookahead relies on.
func cutLinks(se *sim.ShardedEngine, part *topology.Partition, net *topology.Network) {
	cut, minDelay, anyCut := part.CutLinks(net)
	if !anyCut {
		panic("experiments: multi-shard partition with no cut links")
	}
	if minDelay < se.Lookahead() {
		panic(fmt.Sprintf(
			"experiments: cut link with propagation delay %v below the lookahead %v; "+
				"a sharded run needs every cross-shard link's delay to be at least the window width",
			minDelay, se.Lookahead()))
	}
	for _, l := range cut {
		src, dst := part.ShardOf(l.From), part.ShardOf(l.To)
		l.Port.SetRemote(func(at sim.Time, ctx *sim.Rank, k uint64, a sim.Action, arg any) {
			se.HandoffAction(src, dst, at, ctx, k, a, arg)
		})
	}
}

// driveSharded runs the workload across the shards: arrivals go on
// their source host's shard engine, barrier windows run until the last
// arrival is in, and the serial tail drains the rest. Per-shard record
// buffers replace the driver's sink on the stacks' data path; the
// coordinator drains them into d.Sink, stored or streamed, at every
// barrier (every consumer of the records is insertion-order
// independent).
func driveSharded(se *sim.ShardedEngine, d *transport.Driver, part *topology.Partition,
	it *workload.Stream) metrics.Summary {

	bufs := make([]bufSink, part.Shards)
	for _, st := range d.Stacks {
		st.Collector = &bufs[part.ShardOf(st.Host)]
	}
	drainBufs := func() {
		for i := range bufs {
			for _, r := range bufs[i].take() {
				d.Sink.Add(r)
			}
		}
	}
	// A flow ends on its source's shard; its receiver is released on the
	// destination's, one lookahead later when that is another shard.
	lookahead := sim.Duration(se.Lookahead())
	d.DropRx = func(src, dst pkt.NodeID, flow pkt.FlowID) {
		ss, ds := part.ShardOfID(src), part.ShardOfID(dst)
		if ss == ds {
			d.Stacks[dst].DropReceiver(flow)
			return
		}
		e := se.Shard(ss)
		ctx, k := e.ChildSlot()
		se.Handoff(ss, ds, e.Now().Add(lookahead), ctx, k, func() {
			d.Stacks[dst].DropReceiver(flow)
		})
	}
	runShardedStream(se, d, part, it, drainBufs)
	return d.Sink.Summarize()
}

// runShardedStream drives the arrival stream across the shards: the
// coordinator pulls the iterator between windows and injects
// each flow start as a ranked event on its source shard, reproducing
// ScheduleStream's serial event order exactly. Each batch of
// same-timestamp arrivals gets one coordinator rank node standing for
// the serial onArrival event; flow j of an m-flow batch takes child
// slot j for j < m-1, the next batch's chain node (or the drain
// watchdog) takes slot m-1, and the last flow takes slot m — mirroring
// onArrival's call order (start all but the last flow, schedule the
// next arrival or the watchdog, start the last flow).
func runShardedStream(se *sim.ShardedEngine, d *transport.Driver, part *topology.Partition,
	it *workload.Stream, drainBufs func()) {

	pending, hasPending := it.Next()
	if !hasPending {
		panic(fmt.Errorf("transport: no foreground flows scheduled"))
	}

	// drained: the iterator is exhausted. The coordinator sets it
	// between windows; OnZero reads it on the shards.
	var drained atomic.Bool
	d.OnZero = func() {
		if drained.Load() {
			se.RequestStop()
		}
	}
	lookahead := sim.Duration(se.Lookahead())

	// The serial path's one setup Schedule (the first AtHead).
	var prevCtx *sim.Rank
	prevK := se.SetupSlot()
	var lastArrival sim.Time
	var batch []workload.FlowSpec

	injectFlow := func(t sim.Time, ctx *sim.Rank, k uint64, f workload.FlowSpec) {
		if !f.Background {
			d.Prime(1)
		}
		se.Shard(part.ShardOfID(f.Src)).InjectAt(t, true, ctx, k, func() {
			d.StartArrival(f)
		})
	}

	injectBefore := func(end sim.Time) {
		for hasPending && pending.Start < end {
			t := pending.Start
			batch = append(batch[:0], pending)
			hasPending = false
			for {
				f, ok := it.Next()
				if !ok {
					drained.Store(true)
					break
				}
				if f.Start == t {
					batch = append(batch, f)
					continue
				}
				pending, hasPending = f, true
				break
			}
			r := se.NewCoordRank(t, true, prevCtx, prevK)
			m := len(batch)
			for j := 0; j < m-1; j++ {
				injectFlow(t, r, uint64(j), batch[j])
			}
			last := batch[m-1]
			if drained.Load() {
				se.Shard(part.ShardOfID(last.Src)).InjectAt(t.Add(transport.StreamGrace), false, r, uint64(m-1), se.RequestStop)
				injectFlow(t, r, uint64(m), last)
				lastArrival = t
			} else {
				prevCtx, prevK = r, uint64(m-1)
				injectFlow(t, r, uint64(m), last)
			}
		}
	}

	for {
		cand, have := se.MinPendingTime()
		if hasPending && (!have || pending.Start < cand) {
			cand, have = pending.Start, true
		}
		if !have {
			break
		}
		end := cand.Add(lookahead)
		if drained.Load() && end > lastArrival {
			break
		}
		injectBefore(end)
		se.StepWindow(end)
		drainBufs()
	}
	se.RunTail()
	drainBufs()
	d.FlushUnfinished()
}
