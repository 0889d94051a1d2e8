package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pase/internal/sim"
)

// Parse builds a Plan from the -faults spec grammar: semicolon-
// separated clauses, each a kind followed by comma-separated
// key=value pairs.
//
//	seed=42
//	linkdown:link=<id|*>,at=<dur>,for=<dur>[,every=<dur>]
//	loss:rate=<p>[,corrupt=<p>][,link=<id|*>][,class=any|data|ack|ctrl][,from=<dur>][,to=<dur>]
//	ctrl:[drop=<p>][,delay=<dur>][,from=<dur>][,to=<dur>]
//	crash:at=<dur>[,for=<dur>][,link=<id|*>][,every=<dur>]
//
// Durations use Go syntax ("10ms", "50us"); link=* (or an omitted
// link key) targets every link. An empty spec yields an empty plan.
// The result always passes Validate, and Plan.String round-trips
// through Parse.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", v)
			}
			p.Seed = seed
			continue
		}
		kind, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q: want kind:key=value,... or seed=N", clause)
		}
		kvs, err := parseKVs(rest)
		if err != nil {
			return nil, fmt.Errorf("faults: clause %q: %v", clause, err)
		}
		switch kind {
		case "linkdown":
			r := LinkFault{Link: -1}
			err = kvs.apply(map[string]func(string) error{
				"link":  func(v string) error { return parseLink(v, &r.Link) },
				"at":    func(v string) error { return parseDur(v, &r.At) },
				"for":   func(v string) error { return parseDur(v, &r.For) },
				"every": func(v string) error { return parseDur(v, &r.Every) },
			})
			p.Links = append(p.Links, r)
		case "loss":
			r := LossFault{Link: -1}
			err = kvs.apply(map[string]func(string) error{
				"link":    func(v string) error { return parseLink(v, &r.Link) },
				"class":   func(v string) error { var e error; r.Class, e = parseClass(v); return e },
				"rate":    func(v string) error { return parseProb(v, &r.Rate) },
				"corrupt": func(v string) error { return parseProb(v, &r.Corrupt) },
				"from":    func(v string) error { return parseDur(v, &r.From) },
				"to":      func(v string) error { return parseDur(v, &r.To) },
			})
			p.Loss = append(p.Loss, r)
		case "ctrl":
			var r CtrlFault
			err = kvs.apply(map[string]func(string) error{
				"drop":  func(v string) error { return parseProb(v, &r.Drop) },
				"delay": func(v string) error { return parseDur(v, &r.Delay) },
				"from":  func(v string) error { return parseDur(v, &r.From) },
				"to":    func(v string) error { return parseDur(v, &r.To) },
			})
			p.Ctrl = append(p.Ctrl, r)
		case "crash":
			r := CrashFault{Link: -1}
			err = kvs.apply(map[string]func(string) error{
				"link":  func(v string) error { return parseLink(v, &r.Link) },
				"at":    func(v string) error { return parseDur(v, &r.At) },
				"for":   func(v string) error { return parseDur(v, &r.For) },
				"every": func(v string) error { return parseDur(v, &r.Every) },
			})
			p.Crashes = append(p.Crashes, r)
		default:
			return nil, fmt.Errorf("faults: unknown clause kind %q (want linkdown, loss, ctrl or crash)", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: clause %q: %v", clause, err)
		}
	}
	return p, p.Validate()
}

// MarshalText renders the plan as String does, so a run manifest
// records it as its spec.
func (p *Plan) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// String renders the plan in the spec grammar; Parse(p.String()) is
// the identity (the fuzz target's oracle).
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	for _, r := range p.Links {
		s := "linkdown:link=" + linkString(r.Link) + ",at=" + durString(r.At) + ",for=" + durString(r.For)
		if r.Every != 0 {
			s += ",every=" + durString(r.Every)
		}
		parts = append(parts, s)
	}
	for _, r := range p.Loss {
		s := "loss:link=" + linkString(r.Link) + ",class=" + r.Class.String() +
			",rate=" + probString(r.Rate)
		if r.Corrupt != 0 {
			s += ",corrupt=" + probString(r.Corrupt)
		}
		s += windowString(r.From, r.To)
		parts = append(parts, s)
	}
	for _, r := range p.Ctrl {
		s := "ctrl:drop=" + probString(r.Drop)
		if r.Delay != 0 {
			s += ",delay=" + durString(r.Delay)
		}
		s += windowString(r.From, r.To)
		parts = append(parts, s)
	}
	for _, r := range p.Crashes {
		s := "crash:link=" + linkString(r.Link) + ",at=" + durString(r.At) + ",for=" + durString(r.For)
		if r.Every != 0 {
			s += ",every=" + durString(r.Every)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}

// kvList preserves the written order of one clause's pairs.
type kvList []struct{ k, v string }

func parseKVs(s string) (kvList, error) {
	var out kvList
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("bad pair %q (want key=value)", pair)
		}
		out = append(out, struct{ k, v string }{k, v})
	}
	return out, nil
}

// apply dispatches each pair to its key's setter, rejecting unknown
// and duplicate keys.
func (kvs kvList) apply(setters map[string]func(string) error) error {
	seen := make(map[string]bool, len(kvs))
	for _, kv := range kvs {
		set, ok := setters[kv.k]
		if !ok {
			return fmt.Errorf("unknown key %q", kv.k)
		}
		if seen[kv.k] {
			return fmt.Errorf("duplicate key %q", kv.k)
		}
		seen[kv.k] = true
		if err := set(kv.v); err != nil {
			return err
		}
	}
	return nil
}

func parseLink(v string, out *int) error {
	if v == "*" {
		*out = -1
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return fmt.Errorf("bad link %q (want a non-negative id or *)", v)
	}
	*out = n
	return nil
}

func parseDur(v string, out *sim.Duration) error {
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return fmt.Errorf("bad duration %q", v)
	}
	*out = sim.DurationOf(d)
	return nil
}

func parseProb(v string, out *float64) error {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return fmt.Errorf("bad probability %q", v)
	}
	*out = f
	return nil
}

func linkString(l int) string {
	if l == -1 {
		return "*"
	}
	return strconv.Itoa(l)
}

// durString formats a duration so ParseDuration accepts it again
// (time.Duration.String output always round-trips).
func durString(d sim.Duration) string { return d.Std().String() }

func probString(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }

func windowString(from, to sim.Duration) string {
	var s string
	if from != 0 {
		s += ",from=" + durString(from)
	}
	if to != 0 {
		s += ",to=" + durString(to)
	}
	return s
}
