// Package trace records what a simulation run did, for observation: one
// Recorder (span.go) per run captures five tracks — flow events, flow
// spans, control spans, route events and queue samples. The two flow
// tracks stream to their writers as the run goes: flow events as TSV,
// flow spans as the flow sections of the Chrome/Perfetto export
// (perfetto.go), which ends with the control spans, queue samples and
// route events the RunTrace retains. Every track is bounded and comes
// out in a canonical order, so traced output is deterministic. The
// simulator itself never depends on tracing; experiments opt in.
//
// The three primitives below carry every track: a newest-N Ring, the
// canonical sort of a ring's items, and the same-instant group that
// the flow-track writers flush in canonical order.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
)

// Ring keeps the newest Cap items added to it, or every item when Cap
// is 0. Set Cap before the first Add.
type Ring[T any] struct {
	Cap   int
	items []T
	added int64
}

// Add appends v. Once the ring is full, v overwrites the oldest item.
func (r *Ring[T]) Add(v T) {
	if r.Cap > 0 && len(r.items) >= r.Cap {
		r.items[r.added%int64(r.Cap)] = v
	} else {
		r.items = append(r.items, v)
	}
	r.added++
}

// Added returns how many items were offered to the ring, evicted ones
// included.
func (r *Ring[T]) Added() int64 { return r.added }

// Items returns the retained items, oldest first.
func (r *Ring[T]) Items() []T {
	if r.added <= int64(len(r.items)) {
		return r.items
	}
	at := r.added % int64(r.Cap)
	out := make([]T, 0, len(r.items))
	out = append(out, r.items[at:]...)
	return append(out, r.items[:at]...)
}

// canonical returns a track's retained items sorted by less, and how
// many items the ring shed.
func canonical[T any](r *Ring[T], less func(a, b T) bool) ([]T, int64) {
	items := r.Items()
	sort.Slice(items, func(i, j int) bool { return less(items[i], items[j]) })
	return items, r.Added() - int64(len(items))
}

// group is a flow-track writer's same-instant group. Items arrive in
// clock order; those sharing one instant are held until a later one
// arrives, then flushed sorted by less, so a stream written while the
// run goes comes out in canonical order whatever order one instant's
// events fired in.
type group[T any] struct {
	items []T
	at    func(T) sim.Time
	less  func(a, b T) bool
	flush func([]T)
}

func (g *group[T]) add(v T) {
	if len(g.items) > 0 && g.at(g.items[0]) != g.at(v) {
		g.done()
	}
	g.items = append(g.items, v)
}

// done flushes the pending group.
func (g *group[T]) done() {
	sort.Slice(g.items, func(i, j int) bool { return g.less(g.items[i], g.items[j]) })
	g.flush(g.items)
	g.items = g.items[:0]
}

// FlowEvent is one entry of the flow-event track.
type FlowEvent struct {
	At   sim.Time
	Kind string // "start", "done", "abort"
	Flow pkt.FlowID
	Src  pkt.NodeID
	Dst  pkt.NodeID
	Size int64
	// FCT is set on "done".
	FCT sim.Duration
}

// FlowLog is a ring of flow events, for callers that keep a bounded
// flow-event log of their own; the Recorder streams its flow events.
type FlowLog = Ring[FlowEvent]

// eventLess is the canonical (At, Flow, kind) order, starts before
// completions within one instant — the order every writer emits, which
// is what makes traced output byte-identical across run modes.
func eventLess(a, b FlowEvent) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Flow != b.Flow {
		return a.Flow < b.Flow
	}
	return a.Kind == "start" && b.Kind != "start"
}

func eventAt(e FlowEvent) sim.Time { return e.At }

// writeFlowHeader starts the flow-event TSV. Its times are nanoseconds —
// the clock's native unit — so sub-µs flow completion times survive.
func writeFlowHeader(w *bufio.Writer) {
	fmt.Fprintln(w, "# time_ns\tkind\tflow\tsrc\tdst\tsize\tfct_ns")
}

func writeFlowEvent(w *bufio.Writer, e FlowEvent) {
	fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
		int64(e.At), e.Kind, e.Flow, e.Src, e.Dst, e.Size, int64(e.FCT))
}

// QueueSample is one observation of one port's queue.
type QueueSample struct {
	At   sim.Time
	Port string
	// Idx is the port's index in the sampling order (see AllPorts) —
	// the tie-breaker of the canonical order.
	Idx   int
	Len   int
	Bytes int64
}

// sampleLess is the canonical (At, Idx) order of queue samples.
func sampleLess(a, b QueueSample) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Idx < b.Idx
}

// AllPorts enumerates every port of a fabric (hosts and switches),
// named, for sampling. The slice order is the run-wide port index.
func AllPorts(n *topology.Network) []*netem.Port {
	var out []*netem.Port
	for _, h := range n.Hosts {
		out = append(out, h.Port())
	}
	for _, sw := range n.ToRs {
		out = append(out, sw.Ports()...)
	}
	for _, sw := range n.Aggs {
		out = append(out, sw.Ports()...)
	}
	if n.Core != nil {
		out = append(out, n.Core.Ports()...)
	}
	for _, sw := range n.Spines {
		out = append(out, sw.Ports()...)
	}
	return out
}

// WriteQueueSamples dumps the queue track as TSV with a header row.
// Times are nanoseconds, the clock's native unit, as in the flow-event
// TSV.
func (rt *RunTrace) WriteQueueSamples(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# time_ns\tport\tqlen\tqbytes")
	for _, sm := range rt.Queue {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\n", int64(sm.At), sm.Port, sm.Len, sm.Bytes)
	}
	return bw.Flush()
}
