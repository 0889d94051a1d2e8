package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Chrome/Perfetto trace-event JSON export.
//
// The layout: process 1 ("flows") holds one track per flow — an
// enclosing "flow <id>" span with the wait/transmit phase spans nested
// inside it and instant events for the marks; process 2
// ("arbitration") holds the control-plane exchanges, with s/f
// flow-arrows tying each completed exchange back to its flow's track;
// process 3 ("queues") carries queue occupancy as counter tracks.
// Timestamps are microseconds with nanosecond fractions, so nothing is
// truncated. The emission is hand-rolled and fully deterministic: no
// maps, no floats, fixed key order.

// Perfetto process ids.
const (
	pidFlows  = 1
	pidCtrl   = 2
	pidQueues = 3
	pidRoute  = 4
)

// perfettoStream writes trace-event JSON incrementally: the header, any
// number of Flows calls (flow traces in canonical order), Finish. The
// Recorder drives it one same-instant flow group at a time.
type perfettoStream struct {
	b     *bufio.Writer
	n     int // events written (comma bookkeeping)
	arrow int // flow-arrow id allocator
}

// newPerfettoStream wraps w and writes the header and process metadata.
func newPerfettoStream(w io.Writer, meta Meta) *perfettoStream {
	ps := &perfettoStream{b: bufio.NewWriter(w)}
	fmt.Fprintf(ps.b,
		`{"displayTimeUnit":"ns","otherData":{"tool":"pase","proto":%q,"scenario":%q,"nic_bps":"%d","sample_n":"%d","seed":"%d"},"traceEvents":[`,
		meta.Proto, meta.Scenario, meta.NICBps, meta.SampleN, meta.Seed)
	ps.event(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"flows"}}`, pidFlows)
	ps.event(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"arbitration"}}`, pidCtrl)
	ps.event(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"queues"}}`, pidQueues)
	return ps
}

// event writes one comma-separated JSON object.
func (ps *perfettoStream) event(format string, args ...any) {
	if ps.n > 0 {
		ps.b.WriteString(",\n")
	} else {
		ps.b.WriteString("\n")
	}
	ps.n++
	fmt.Fprintf(ps.b, format, args...)
}

// ts renders a sim time/duration (ns) as fractional microseconds —
// the trace-event unit — without losing sub-µs precision.
func ts(ns int64) string {
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// Flows emits the events of a batch of flow traces (already in
// canonical order).
func (ps *perfettoStream) Flows(fts []*FlowTrace) {
	for _, ft := range fts {
		dur := int64(ft.End.Sub(ft.Start))
		ps.event(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":"flow %d","cat":"flow","args":{"src":%d,"dst":%d,"size":%d,"flagged":%t,"aborted":%t,"truncated":%d}}`,
			pidFlows, ft.Flow, ts(int64(ft.Start)), ts(dur), ft.Flow,
			ft.Src, ft.Dst, ft.Size, ft.Flagged, ft.Aborted, ft.Truncated)
		for _, sp := range ft.Spans {
			name := "wait-ctrl"
			if sp.Kind == SpanXfer {
				name = fmt.Sprintf("xfer q%d", sp.Prio)
			}
			ps.event(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%q,"cat":"phase","args":{"prio":%d}}`,
				pidFlows, ft.Flow, ts(int64(sp.Start)), ts(int64(sp.End.Sub(sp.Start))), name, sp.Prio)
		}
		for _, m := range ft.Marks {
			ps.event(`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s,"name":%q,"cat":"mark","args":{"arg":%d}}`,
				pidFlows, ft.Flow, ts(int64(m.At)), m.Kind.String(), m.Arg)
		}
	}
}

// Finish writes the control-plane, queue and routing sections, closes
// the JSON and flushes. It returns the first underlying write error.
func (ps *perfettoStream) Finish(ctrl []CtrlSpan, queue []QueueSample, route []RouteEvent) error {
	for _, c := range ctrl {
		side := "dst"
		if c.SrcSide {
			side = "src"
		}
		ps.event(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":"arb %s L%d","cat":"ctrl","args":{"outcome":%q,"level":%d}}`,
			pidCtrl, c.Flow, ts(int64(c.Start)), ts(int64(c.Latency)),
			side, c.Level, c.Outcome.String(), c.Level)
		if c.Outcome == CtrlOK && c.Latency > 0 {
			ps.arrow++
			done := int64(c.Start) + int64(c.Latency)
			ps.event(`{"ph":"s","pid":%d,"tid":%d,"ts":%s,"id":%d,"name":"arb","cat":"arbflow"}`,
				pidCtrl, c.Flow, ts(int64(c.Start)), ps.arrow)
			ps.event(`{"ph":"f","bp":"e","pid":%d,"tid":%d,"ts":%s,"id":%d,"name":"arb","cat":"arbflow"}`,
				pidFlows, c.Flow, ts(done), ps.arrow)
		}
	}
	for _, q := range queue {
		ps.event(`{"ph":"C","pid":%d,"ts":%s,"name":%q,"args":{"pkts":%d,"bytes":%d}}`,
			pidQueues, ts(int64(q.At)), q.Port, q.Len, q.Bytes)
	}
	if len(route) > 0 {
		// The routing process only exists in traces that rerouted, so
		// route-free exports stay byte-identical to pre-routing builds.
		ps.event(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"routing"}}`, pidRoute)
		for _, r := range route {
			ps.event(`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s,"name":%q,"cat":"route","args":{"rack":%d,"spine":%d}}`,
				pidRoute, r.Rack, ts(int64(r.At)), r.Kind.String(), r.Rack, r.Spine)
		}
	}
	ps.b.WriteString("\n]}\n")
	return ps.b.Flush()
}
