package arbitration

import (
	"math"
	"sort"
	"testing"

	"pase/internal/check"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// pdqEntry is one flow's state in pdqModel.
type pdqEntry struct {
	flow      pkt.FlowID
	remaining int64
	deadline  sim.Time
	demand    netem.BitRate
	granted   netem.BitRate
}

// pdqModel is PDQ's original per-link rate allocator, kept as the
// oracle for Grant: every update recomputes every grant in criticality
// order, greedily up to capacity, then by Early Start.
type pdqModel struct {
	capacity netem.BitRate
	flows    map[pkt.FlowID]*pdqEntry
}

func (m *pdqModel) update(flow pkt.FlowID, remaining int64, deadline sim.Time, demand netem.BitRate, horizon sim.Duration) netem.BitRate {
	e, ok := m.flows[flow]
	if !ok {
		e = &pdqEntry{flow: flow}
		m.flows[flow] = e
	}
	e.remaining, e.deadline, e.demand = remaining, deadline, demand
	m.allocate(horizon)
	return e.granted
}

func (m *pdqModel) allocate(horizon sim.Duration) {
	order := make([]*pdqEntry, 0, len(m.flows))
	for _, e := range m.flows {
		order = append(order, e)
	}
	sort.Slice(order, func(i, j int) bool {
		ei, ej := order[i], order[j]
		// Earliest deadline first; deadline flows precede deadline-free
		// flows; ties and no-deadline flows by shortest remaining.
		switch {
		case ei.deadline != 0 && ej.deadline == 0:
			return true
		case ei.deadline == 0 && ej.deadline != 0:
			return false
		case ei.deadline != ej.deadline:
			return ei.deadline < ej.deadline
		case ei.remaining != ej.remaining:
			return ei.remaining < ej.remaining
		default:
			return ei.flow < ej.flow
		}
	})

	available := m.capacity
	drain := sim.Duration(0) // drain time of everything granted so far
	for _, e := range order {
		switch {
		case available > 0:
			grant := min(e.demand, available)
			e.granted = grant
			available -= grant
			if grant > 0 {
				drain += sim.Duration(float64(e.remaining*8) / float64(grant) * float64(sim.Second))
			}
		case drain < horizon:
			e.granted = e.demand
			drain += sim.Duration(float64(e.remaining*8) / float64(e.demand) * float64(sim.Second))
		default:
			e.granted = 0 // paused
		}
	}
}

// pdqKey is the criticality key PDQ hands Grant.
func pdqKey(deadline sim.Time) int64 {
	if deadline == 0 {
		return math.MaxInt64
	}
	return int64(deadline)
}

// FuzzPDQGrant drives one period-0 arbitrator — a PDQ link — and
// pdqModel with the same registrations, refreshes and removals, and
// fails on any flow whose grant differs. Each op is four bytes: kind
// and flow; demand, in quarters of the capacity and one bit/s either
// side, so demands ahead add up to exactly the capacity; remaining
// size; and the deadline (a third of the flows have one) with the
// Early Start horizon, 0–400 µs. A strict checker verifies every pass.
func FuzzPDQGrant(f *testing.F) {
	// 1 Gbps, no horizon: flow 1 wants C/2, flow 2 wants C and gets the
	// other C/2, a partial grant that ends exactly at capacity; flow 3
	// is paused, and stays paused under a 400 µs horizon (720 µs of
	// drain ahead of it); flow 1's removal hands flow 2 the link.
	f.Add([]byte{0,
		0x18, 0x09, 10, 0x00,
		0x19, 0x0b, 20, 0x00,
		0x1a, 0x0b, 30, 0x00,
		0x1a, 0x0b, 30, 0x80,
		0xc0, 0x00, 0, 0x00,
		0x19, 0x0b, 20, 0x00})
	// 1 Gbps, 400 µs horizon: flows 1-4 want C with 1-4 packets left;
	// flow 1 holds the link and 2, 3, 4 Early Start one after another
	// (drain 12, 36, 72 µs). At 50 µs the chain stops before flow 4.
	// Then a deadline flow wanting C/4 goes first and flow 1's grant is
	// cut to the 3C/4 left, again ending exactly at capacity.
	f.Add([]byte{0,
		0x18, 0x0b, 1, 0x80,
		0x19, 0x0b, 2, 0x80,
		0x1a, 0x0b, 3, 0x80,
		0x1b, 0x0b, 4, 0x80,
		0x1b, 0x0b, 4, 0x10,
		0x04, 0x08, 2, 0x80,
		0x18, 0x0b, 1, 0x80})
	f.Add([]byte{3, 0x31, 0x5f, 0xff, 0x19, 0x22, 0x3b, 0x04, 0xa7, 0xc1, 0x00, 0x00, 0x00, 0x13, 0x44, 0x80, 0x5d})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		capacity := netem.BitRate(1+int(data[0])%4) * netem.Gbps
		a := NewArbitrator(0, capacity, 2, 0, 0, func() sim.Time { return 0 })
		a.AttachCheck(check.NewStrict(nil))
		m := &pdqModel{capacity: capacity, flows: make(map[pkt.FlowID]*pdqEntry)}
		for i := 1; i+3 < len(data); i += 4 {
			op, x, y, z := data[i], data[i+1], data[i+2], data[i+3]
			flow := pkt.FlowID(op%12 + 1)
			if op>>6 == 3 {
				a.Remove(flow)
				delete(m.flows, flow)
			} else {
				demand := capacity/4*netem.BitRate(1+x%8) + netem.BitRate(int(x>>3)%3-1)
				remaining := int64(y) * 1500
				var deadline sim.Time
				if (op>>4)%3 == 0 {
					deadline = sim.Time(1+int(z%16)) * sim.Time(100*sim.Microsecond)
				}
				horizon := sim.Duration((z>>4)%9) * 50 * sim.Microsecond
				got := a.Grant(flow, pdqKey(deadline), remaining, demand, horizon)
				if want := m.update(flow, remaining, deadline, demand, horizon); got != want {
					t.Fatalf("op %d: flow %d granted %v, oracle %v", i, flow, got, want)
				}
			}
			if a.Flows() != len(m.flows) {
				t.Fatalf("op %d: arbitrator holds %d flows, oracle %d", i, a.Flows(), len(m.flows))
			}
		}
		// Every flow's last grant, not only each caller's: a Remove
		// recomputes neither side until the next update.
		for id, e := range m.flows {
			if got := a.entries[id].decision.Rref; got != e.granted {
				t.Fatalf("flow %d: last grant %v, oracle %v", id, got, e.granted)
			}
		}
	})
}
