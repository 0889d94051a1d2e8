package sim

import "testing"

func BenchmarkScheduleAndRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i%1000)*Microsecond, func() {})
		if i%1024 == 1023 {
			for e.Step() {
			}
		}
	}
	for e.Step() {
	}
}

func BenchmarkTimerChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := e.Schedule(Millisecond, func() {})
		t.Stop()
	}
}

// BenchmarkScheduleFireSteady measures the steady-state schedule+fire
// cycle with a populated calendar — the shape of the simulator's inner
// loop (every fired packet event schedules its successors).
func BenchmarkScheduleFireSteady(b *testing.B) {
	e := NewEngine()
	const depth = 512
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.Schedule(Duration(i)*Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(depth)*Microsecond, fn)
		e.Step()
	}
	for e.Step() {
	}
}

// horizonMix is how far ahead a fig-9a DCTCP run schedules, in shares
// of 100 events: a ≈ 60 ns switch hop, sub-µs and µs serialization,
// and 12–50 µs queueing and propagation — 96 % within the calendar's
// window — plus the timers that mixedLoad re-arms on top.
var horizonMix = [...]struct {
	share int
	d     Duration
}{
	{16, 60}, {8, 400}, {16, 1200}, {8, 12 * Microsecond},
	{40, 24 * Microsecond}, {8, 50 * Microsecond}, {4, 200 * Microsecond},
}

// mixedLoad drives a warm engine in the shape of that traffic: each op
// schedules one event from horizonMix and fires the earliest. One op in
// 25 also re-arms a timer — stop the slot's last one, schedule the next
// — alternating an 8–16 ms retransmission timeout with a 30 µs pacing
// timer, so cancelled entries pile up past compactMinDead in the
// overflow heap and in the buckets, and compaction clears them. The
// 200 µs events start past the window and fire only after migrating.
type mixedLoad struct {
	e           *Engine
	delays      []Duration
	i           int
	timers      [64]Timer
	fn          func()
	far         farAction
	compactions int
}

type farAction struct{ fired int }

func (f *farAction) Fire(any) { f.fired++ }

func newMixedLoad(depth int) *mixedLoad {
	m := &mixedLoad{e: NewEngine(), fn: func() {}}
	for _, h := range horizonMix {
		for j := 0; j < h.share; j++ {
			m.delays = append(m.delays, h.d+Duration(j%5))
		}
	}
	r := NewRand(1)
	for i := len(m.delays) - 1; i > 0; i-- {
		j := int(r.UniformInt(0, int64(i)))
		m.delays[i], m.delays[j] = m.delays[j], m.delays[i]
	}
	for i := 0; i < depth; i++ {
		m.schedule()
	}
	return m
}

func (m *mixedLoad) schedule() {
	d := m.delays[m.i%len(m.delays)]
	if d >= 200*Microsecond {
		m.e.ScheduleAction(d, &m.far, nil)
	} else {
		m.e.Schedule(d, m.fn)
	}
	if m.i%25 == 0 {
		k := m.i / 25
		t := &m.timers[k%len(m.timers)]
		if t.Stop() && m.e.dead == 0 {
			m.compactions++
		}
		d := 8*Millisecond + Duration(k%8)*Millisecond
		if k%2 == 1 {
			d = 30 * Microsecond
		}
		*t = m.e.Schedule(d, m.fn)
	}
	m.i++
}

func (m *mixedLoad) op() {
	m.schedule()
	m.e.Step()
}

// BenchmarkScheduleFireMixed is the schedule+fire cycle at fig-9a
// depth (≈ 1 000 entries) under fig-9a's horizon mix, the calendar's
// design load. BenchmarkScheduleFireSteady's uniform 512 µs horizon
// lands past the bucket window and measures the overflow heap instead.
func BenchmarkScheduleFireMixed(b *testing.B) {
	m := newMixedLoad(1000)
	for i := 0; i < 100_000; i++ {
		m.op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.op()
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkRandExp(b *testing.B) {
	r := NewRand(1)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exp(1)
	}
	_ = sink
}
