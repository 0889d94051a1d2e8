package faults

import (
	"strings"
	"testing"

	"pase/internal/pkt"
	"pase/internal/sim"
)

func TestParseFullGrammar(t *testing.T) {
	spec := "seed=7; linkdown:link=3,at=10ms,for=5ms,every=50ms; " +
		"loss:link=*,class=data,rate=0.01,corrupt=0.002,from=1ms,to=9ms; " +
		"ctrl:drop=0.2,delay=100us; crash:link=*,at=20ms,for=2ms,every=20ms"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 {
		t.Fatalf("seed = %d, want 7", p.Seed)
	}
	if len(p.Links) != 1 || len(p.Loss) != 1 || len(p.Ctrl) != 1 || len(p.Crashes) != 1 {
		t.Fatalf("rule counts = %d/%d/%d/%d, want 1 each",
			len(p.Links), len(p.Loss), len(p.Ctrl), len(p.Crashes))
	}
	ld := p.Links[0]
	if ld.Link != 3 || ld.At != 10*sim.Millisecond || ld.For != 5*sim.Millisecond || ld.Every != 50*sim.Millisecond {
		t.Fatalf("linkdown = %+v", ld)
	}
	lo := p.Loss[0]
	if lo.Link != -1 || lo.Class != DataClass || lo.Rate != 0.01 || lo.Corrupt != 0.002 ||
		lo.From != sim.Millisecond || lo.To != 9*sim.Millisecond {
		t.Fatalf("loss = %+v", lo)
	}
	ct := p.Ctrl[0]
	if ct.Drop != 0.2 || ct.Delay != 100*sim.Microsecond {
		t.Fatalf("ctrl = %+v", ct)
	}
	cr := p.Crashes[0]
	if cr.Link != -1 || cr.At != 20*sim.Millisecond || cr.For != 2*sim.Millisecond || cr.Every != 20*sim.Millisecond {
		t.Fatalf("crash = %+v", cr)
	}
}

func TestParseEmptyAndDefaults(t *testing.T) {
	for _, spec := range []string{"", "  ", ";;", " ; "} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if !p.Empty() {
			t.Fatalf("Parse(%q) not empty: %+v", spec, p)
		}
	}
	// An omitted link key targets every link.
	p, err := Parse("loss:rate=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Loss[0].Link != -1 || p.Loss[0].Class != Any {
		t.Fatalf("defaults = %+v", p.Loss[0])
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		spec, want string
	}{
		{"bogus", "want kind:key=value"},
		{"flood:rate=1", "unknown clause kind"},
		{"loss:rate=1,frob=2", `unknown key "frob"`},
		{"loss:rate=0.1,rate=0.2", `duplicate key "rate"`},
		{"loss:rate=1.5", "outside [0, 1]"},
		{"loss:rate=NaN", "outside [0, 1]"},
		{"loss:rate=x", "bad probability"},
		{"loss:rate=0.1,link=-3", "bad link"},
		{"loss:rate=0.1,from=5ms,to=2ms", "is empty"},
		{"linkdown:link=1,at=1ms", "for > 0"},
		{"linkdown:link=1,at=1ms,for=1ms,every=1us", "below"},
		{"linkdown:link=1,at=-1ms,for=1ms", "bad duration"},
		{"ctrl:drop=0.1,delay=junk", "bad duration"},
		{"seed=abc", "bad seed"},
		{"crash:link=*,at=0s,every=5us", "below"},
	}
	for _, tc := range tests {
		_, err := Parse(tc.spec)
		if err == nil {
			t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.spec, tc.want)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Parse(%q) error = %q, want substring %q", tc.spec, err, tc.want)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"seed=42",
		"linkdown:link=0,at=1ms,for=500us",
		"linkdown:link=*,at=0s,for=1ms,every=10ms",
		"loss:link=2,class=ack,rate=0.25",
		"loss:link=*,class=any,rate=0,corrupt=0.125,from=1ms",
		"ctrl:drop=0.5,delay=20us,from=1ms,to=2ms",
		"crash:link=*,at=5ms,for=0s,every=10ms",
		"seed=1;loss:link=*,class=data,rate=0.01;ctrl:drop=0.9",
	}
	for _, spec := range specs {
		p1, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		s1 := p1.String()
		p2, err := Parse(s1)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", s1, err)
		}
		if s2 := p2.String(); s1 != s2 {
			t.Fatalf("round trip diverged:\n  spec   %q\n  first  %q\n  second %q", spec, s1, s2)
		}
	}
}

func TestClassMatches(t *testing.T) {
	tests := []struct {
		c    Class
		t    pkt.Type
		want bool
	}{
		{Any, pkt.Data, true},
		{Any, pkt.Credit, true},
		{DataClass, pkt.Data, true},
		{DataClass, pkt.Ack, false},
		{AckClass, pkt.Ack, true},
		{AckClass, pkt.Probe, false},
		{CtrlClass, pkt.Probe, true},
		{CtrlClass, pkt.ProbeAck, true},
		{CtrlClass, pkt.Credit, false},
		{CtrlClass, pkt.Data, false},
	}
	for _, tc := range tests {
		if got := tc.c.Matches(tc.t); got != tc.want {
			t.Fatalf("%v.Matches(%v) = %v, want %v", tc.c, tc.t, got, tc.want)
		}
	}
}

func TestValidateHandBuiltPlans(t *testing.T) {
	if err := (*Plan)(nil).Validate(); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
	if !(*Plan)(nil).Empty() {
		t.Fatal("nil plan should be empty")
	}
	bad := &Plan{Loss: []LossFault{{Link: 0, Rate: 2}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("rate 2 accepted")
	}
	ok := &Plan{Ctrl: []CtrlFault{{Drop: 1}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("drop 1: %v", err)
	}
	if ok.Empty() {
		t.Fatal("plan with a ctrl rule should not be empty")
	}
}
