// Package trace provides observation tooling for simulation runs: a
// flow-event log, a periodic queue-occupancy sampler, and a span-based
// flight recorder (span.go) with Chrome/Perfetto export (perfetto.go)
// — all bounded, deterministic, and shard-safe. The simulator itself
// never depends on tracing; experiments opt in.
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

// Retention defaults for the flow log and the queue sampler.
const (
	DefaultFlowLogCap = 1 << 18
	DefaultSampleCap  = 1 << 18
)

// FlowEvent is one entry of the flow log.
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

// kindRank orders a flow's lifecycle events within one instant:
// starts sort before completions.
func kindRank(kind string) int {
	if kind == "start" {
		return 0
	}
	return 1
}

// SortFlowEvents puts events into the canonical (At, Flow, kind)
// order — the order every writer emits, which is what makes traced
// output byte-identical across shard counts and run modes.
func SortFlowEvents(events []FlowEvent) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Flow != b.Flow {
			return a.Flow < b.Flow
		}
		return kindRank(a.Kind) < kindRank(b.Kind)
	})
}

// FlowLog accumulates flow lifecycle events. Retention is bounded by
// Cap (a ring keeping the newest events), or unbounded when Cap is 0.
// SpillTo switches the log to streaming output instead: events go to a
// writer as canonical TSV rows and nothing is retained.
type FlowLog struct {
	// Cap, when positive, bounds retained events; Add evicts the
	// oldest once full. Set before the run.
	Cap    int
	events []FlowEvent
	pos    int64 // total Adds

	spill *bufio.Writer
	grp   []FlowEvent // same-instant group awaiting canonical flush
	err   error
}

// Add appends one event (or streams it, in spill mode).
func (l *FlowLog) Add(e FlowEvent) {
	l.pos++
	if l.spill != nil {
		// Events arrive in clock order; a finished instant can be
		// sorted and flushed as soon as the clock moves on, so spill
		// output matches the buffered canonical order byte for byte.
		if len(l.grp) > 0 && l.grp[0].At != e.At {
			l.flushGroup()
		}
		l.grp = append(l.grp, e)
		return
	}
	if l.Cap > 0 && len(l.events) >= l.Cap {
		l.events[(l.pos-1)%int64(l.Cap)] = e
		return
	}
	l.events = append(l.events, e)
}

// Added returns the total number of events offered to the log.
func (l *FlowLog) Added() int64 { return l.pos }

// Dropped returns how many events retention already shed.
func (l *FlowLog) Dropped() int64 {
	if l.spill != nil {
		return 0
	}
	return l.pos - int64(len(l.events))
}

// Events returns the retained events in insertion order (oldest
// first). Nil in spill mode.
func (l *FlowLog) Events() []FlowEvent {
	if l.Cap <= 0 || l.pos <= int64(len(l.events)) {
		return l.events
	}
	at := l.pos % int64(l.Cap)
	out := make([]FlowEvent, 0, len(l.events))
	out = append(out, l.events[at:]...)
	return append(out, l.events[:at]...)
}

// SpillTo switches the log into streaming mode: the TSV header is
// written now, every completed instant's events follow in canonical
// order, and memory stays O(events per instant). Call before the run;
// FlushSpill finishes the stream.
func (l *FlowLog) SpillTo(w io.Writer) error {
	l.spill = bufio.NewWriter(w)
	return writeFlowHeader(l.spill)
}

// FlushSpill flushes the trailing instant group and the writer,
// returning the first error the stream hit.
func (l *FlowLog) FlushSpill() error {
	if l.spill == nil {
		return nil
	}
	l.flushGroup()
	if err := l.spill.Flush(); err != nil {
		return err
	}
	return l.err
}

func (l *FlowLog) flushGroup() {
	SortFlowEvents(l.grp)
	for _, e := range l.grp {
		if err := writeFlowEvent(l.spill, e); err != nil && l.err == nil {
			l.err = err
		}
	}
	l.grp = l.grp[:0]
}

// MergeFlowEvents merges per-shard logs into the canonical order and
// applies the run-wide cap (keeping the newest). The merged result is
// shard-count-invariant: each log's ring holds its newest events, and
// any event in the run-wide newest-cap set is necessarily among its
// own shard's newest. It returns the merged events and the total shed.
func MergeFlowEvents(logs []*FlowLog, cap int) ([]FlowEvent, int64) {
	var all []FlowEvent
	var total int64
	for _, l := range logs {
		all = append(all, l.Events()...)
		total += l.Added()
	}
	SortFlowEvents(all)
	if cap > 0 && len(all) > cap {
		all = all[len(all)-cap:]
	}
	return all, total - int64(len(all))
}

// WriteTSV dumps the log with a header row.
func (l *FlowLog) WriteTSV(w io.Writer) error { return WriteFlowEvents(w, l.Events()) }

func writeFlowHeader(w io.Writer) error {
	_, err := fmt.Fprintln(w, "# time_ns\tkind\tflow\tsrc\tdst\tsize\tfct_ns")
	return err
}

func writeFlowEvent(w io.Writer, e FlowEvent) error {
	_, err := fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
		int64(e.At), e.Kind, e.Flow, e.Src, e.Dst, e.Size, int64(e.FCT))
	return err
}

// WriteFlowEvents dumps a flow-event slice with a header row. Times
// are nanoseconds — the clock's native unit — so sub-µs flow
// completion times survive (the old µs columns truncated them to 0).
func WriteFlowEvents(w io.Writer, events []FlowEvent) error {
	bw := bufio.NewWriter(w)
	if err := writeFlowHeader(bw); err != nil {
		return err
	}
	for _, e := range events {
		if err := writeFlowEvent(bw, e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// QueueSample is one observation of one port's queue.
type QueueSample struct {
	At   sim.Time
	Port string
	// Idx is the port's index in the run-wide sampling order (see
	// AllPorts) — the tie-breaker that keeps merged multi-shard sample
	// streams in one canonical order.
	Idx   int
	Len   int
	Bytes int64
}

// Sampler periodically records the occupancy of a set of ports. Ticks
// run at the head of their instant (AtHead), so a sample reads the
// queue state at the start of the tick time regardless of how
// same-instant packet events interleave — serial and sharded runs
// observe the same state.
type Sampler struct {
	eng   *sim.Engine
	every sim.Duration
	ports []*netem.Port
	// names[i] is ports[i]'s label, formatted at its first non-empty
	// sample.
	names []string
	// Idx maps ports[i] to its run-wide index (nil = identity). Set
	// before the run.
	Idx []int
	// Cap, when positive, bounds retained samples; the oldest are
	// evicted first. Set before the run.
	Cap     int
	samples []QueueSample
	pos     int64
	stopped bool
}

// NewSampler samples the given ports every interval until Stop (or
// forever — the engine stops delivering once the run ends).
func NewSampler(eng *sim.Engine, every sim.Duration, ports []*netem.Port) *Sampler {
	if every <= 0 {
		panic("trace: non-positive sampling interval")
	}
	s := &Sampler{eng: eng, every: every, ports: ports, names: make([]string, len(ports))}
	s.schedule()
	return s
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

func (s *Sampler) schedule() {
	s.eng.AtHead(s.eng.Now().Add(s.every), func() {
		if s.stopped {
			return
		}
		now := s.eng.Now()
		for i, p := range s.ports {
			q := p.Queue()
			if q.Len() == 0 {
				continue // keep the log sparse: idle queues are implied
			}
			idx := i
			if s.Idx != nil {
				idx = s.Idx[i]
			}
			if s.names[i] == "" {
				s.names[i] = p.Name()
			}
			s.add(QueueSample{
				At: now, Port: s.names[i], Idx: idx, Len: q.Len(), Bytes: q.Bytes(),
			})
		}
		s.schedule()
	})
}

func (s *Sampler) add(sm QueueSample) {
	s.pos++
	if s.Cap > 0 && len(s.samples) >= s.Cap {
		s.samples[(s.pos-1)%int64(s.Cap)] = sm
		return
	}
	s.samples = append(s.samples, sm)
}

// Stop ends sampling.
func (s *Sampler) Stop() { s.stopped = true }

// Added returns the total samples taken (including evicted ones).
func (s *Sampler) Added() int64 { return s.pos }

// Samples returns the retained samples, oldest first.
func (s *Sampler) Samples() []QueueSample {
	if s.Cap <= 0 || s.pos <= int64(len(s.samples)) {
		return s.samples
	}
	at := s.pos % int64(s.Cap)
	out := make([]QueueSample, 0, len(s.samples))
	out = append(out, s.samples[at:]...)
	return append(out, s.samples[:at]...)
}

// MergeQueueSamples merges per-shard samplers into the canonical
// (At, Idx) order and applies the run-wide cap (keeping the newest).
// Like MergeFlowEvents, the result is shard-count-invariant. It
// returns the merged samples and the total shed.
func MergeQueueSamples(samplers []*Sampler, cap int) ([]QueueSample, int64) {
	var all []QueueSample
	var total int64
	for _, s := range samplers {
		all = append(all, s.Samples()...)
		total += s.Added()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		return all[i].Idx < all[j].Idx
	})
	if cap > 0 && len(all) > cap {
		all = all[len(all)-cap:]
	}
	return all, total - int64(len(all))
}

// MaxLenByPort aggregates the peak sampled occupancy per port.
func (s *Sampler) MaxLenByPort() map[string]int {
	out := make(map[string]int)
	for _, sm := range s.Samples() {
		if sm.Len > out[sm.Port] {
			out[sm.Port] = sm.Len
		}
	}
	return out
}

// WriteTSV dumps the samples with a header row.
func (s *Sampler) WriteTSV(w io.Writer) error { return WriteQueueSamples(w, s.Samples()) }

// WriteQueueSamples dumps a queue-sample slice with a header row.
// Times are nanoseconds (see WriteFlowEvents).
func WriteQueueSamples(w io.Writer, samples []QueueSample) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# time_ns\tport\tqlen\tqbytes"); err != nil {
		return err
	}
	for _, sm := range samples {
		if _, err := fmt.Fprintf(bw, "%d\t%s\t%d\t%d\n",
			int64(sm.At), sm.Port, sm.Len, sm.Bytes); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Busiest returns the n ports with the highest peak occupancy, sorted
// descending — a quick congestion locator.
func (s *Sampler) Busiest(n int) []string {
	peaks := s.MaxLenByPort()
	names := make([]string, 0, len(peaks))
	for name := range peaks {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if peaks[names[i]] != peaks[names[j]] {
			return peaks[names[i]] > peaks[names[j]]
		}
		return names[i] < names[j]
	})
	if n > len(names) {
		n = len(names)
	}
	return names[:n]
}
