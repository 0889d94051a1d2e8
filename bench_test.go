package pase_test

import (
	"testing"

	"pase"
)

// BenchmarkSetup is what a run costs before its first flow: a
// one-flow Simulate is the fabric, the transport stacks and (for the
// PASE rows) the arbitration system, built and torn down. The ctrlscale
// pair is TestSetupScalesWithLinks' measurement as a benchmark line.
func BenchmarkSetup(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  pase.SimConfig
	}{
		{"left-right", pase.SimConfig{Protocol: pase.ProtocolDCTCP, Scenario: pase.ScenarioLeftRight}},
		{"leaf-spine-wide", pase.SimConfig{Protocol: pase.ProtocolDCTCP, Scenario: pase.ScenarioLeafSpineWide}},
		{"ctrlscale-512", pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: "ctrlscale-512"}},
		{"ctrlscale-2048", pase.SimConfig{Protocol: pase.ProtocolPASE, Scenario: "ctrlscale-2048"}},
	} {
		b.Run(c.name, func(b *testing.B) {
			c.cfg.Load, c.cfg.NumFlows, c.cfg.Seed = 0.6, 1, 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pase.Simulate(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
