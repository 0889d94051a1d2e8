package arbitration

import (
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
)

// BenchmarkArbitratorUpdate measures Algorithm 1's cost per flow
// refresh with a few hundred live flows — the hot path of the control
// plane at high load.
func BenchmarkArbitratorUpdate(b *testing.B) {
	eng := sim.NewEngine()
	a := NewArbitrator(0, 10*netem.Gbps, 8, 40*netem.Mbps, 300*sim.Microsecond, eng.Now)
	const live = 300
	for i := 0; i < live; i++ {
		a.Update(pkt.FlowID(i), int64(i*1000), netem.Gbps)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Update(pkt.FlowID(i%live), int64(i%live*1000+i%7), netem.Gbps)
	}
}

func BenchmarkArbitratorChurn(b *testing.B) {
	eng := sim.NewEngine()
	a := NewArbitrator(0, 10*netem.Gbps, 8, 40*netem.Mbps, 300*sim.Microsecond, eng.Now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := pkt.FlowID(i)
		a.Update(id, int64(i), netem.Gbps)
		if i >= 64 {
			a.Remove(id - 64)
		}
	}
}

// BenchmarkClientRefresh measures one whole refresh — both halves'
// climbs, the per-link updates and the delayed replies — over a
// 64-flow cross-fabric book on the flat 3-tier system; one op is a
// round of 64 refreshes plus the epoch that drains their responses.
func BenchmarkClientRefresh(b *testing.B) {
	round := refreshRound(b, topology.Baseline(prioQ), DefaultParams())
	for i := 0; i < 20; i++ {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
