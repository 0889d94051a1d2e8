package route

import (
	"slices"
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
)

// The route proof, in the manner of flow_validator: instead of
// re-checking tables at run time, drive every leaf table through every
// small failure set, recovered in every order, and check the data path
// after each step. A data-path check reads Pick (what FlowRoute
// forwards by) and forwards one real packet per (leaf, destination
// rack), so it sees the clean-table fast path and the dirty count that
// gates it, which the table's own PickBucket does not.

// prover drives one leaf-spine fabric's controller through failure
// sequences and checks every leaf's data path after each step.
type prover struct {
	t   *testing.T
	ls  topology.LeafSpineConfig
	eng *sim.Engine
	net *topology.Network
	ctl *Controller

	// downs lists the fabric links the sequence has failed; trail is
	// the sequence so far (+id failed, -id recovered) for messages.
	downs []int
	trail []int
	steps int
	// pins[r] is leaf r's one TE override, bucket b → spine s (b = -1:
	// none).
	pins []struct{ b, s int }
	// probe[b] is a flow that hashes into bucket b.
	probe []pkt.FlowID

	// at and hops record where the last delivered packet landed.
	at   pkt.NodeID
	hops int
	live []bool // per spine, for the (leaf, rack) pair being checked
	path []*topology.Link
	tx   []int64
}

func newProver(t *testing.T, leaves, spines, hostsPerLeaf int) *prover {
	ls := topology.DefaultLeafSpine(func(topology.QueueKind) netem.Queue { return netem.NewDropTail(64) })
	ls.Leaves, ls.Spines, ls.HostsPerLeaf = leaves, spines, hostsPerLeaf
	p := &prover{t: t, ls: ls, eng: sim.NewEngine(), live: make([]bool, spines), pins: make([]struct{ b, s int }, leaves)}
	for r := range p.pins {
		p.pins[r].b = -1
	}
	p.net = topology.BuildLeafSpine(p.eng, ls)
	p.ctl = Attach(Params{Net: p.net, Cfg: Config{Reroute: true}, Eng: p.eng})
	for _, h := range p.net.Hosts {
		h.Handler = func(pk *pkt.Packet) { p.at, p.hops = h.ID(), int(pk.Hops) }
	}
	tbl := p.net.RouteTable(0)
	p.probe = make([]pkt.FlowID, tbl.Buckets())
	for n, f := 0, pkt.FlowID(1); n < len(p.probe); f++ {
		if b := tbl.BucketOf(f); p.probe[b] == 0 {
			p.probe[b], n = f, n+1
		}
	}
	return p
}

func (p *prover) uplink(r, s int) int   { return p.ls.UplinkID(r, s) }
func (p *prover) downlink(q, s int) int { return p.ls.UplinkID(q, s) + 1 }

func (p *prover) down(link int) bool { return slices.Contains(p.downs, link) }

// assigned is leaf r's bucket b's spine before failure detours.
func (p *prover) assigned(r, b int) int {
	if b == p.pins[r].b {
		return p.pins[r].s
	}
	return b % p.ls.Spines
}

func (p *prover) failf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("%dx%d, pins %v, after %v: "+format,
		append([]any{p.ls.Leaves, p.ls.Spines, p.pins, p.trail}, args...)...)
}

// set moves one fabric link through the controller, as the fault
// injector does, lets the downlink fan-out arrive, and checks.
func (p *prover) set(link int, down bool) {
	if down {
		p.downs = append(p.downs, link)
		p.trail = append(p.trail, link)
	} else {
		p.downs = slices.DeleteFunc(p.downs, func(l int) bool { return l == link })
		p.trail = append(p.trail, -link)
	}
	p.ctl.LinkState(link, down)
	if err := p.eng.Run(); err != nil {
		p.t.Fatal(err)
	}
	p.steps++
	p.check()
}

// check asserts, for every leaf, the table's cleanliness and, for a
// probe flow in every bucket toward every foreign rack, where Pick
// sends it; then it forwards one real packet per destination rack.
func (p *prover) check() {
	spines, buckets := p.ls.Spines, len(p.probe)
	for r := 0; r < p.ls.Leaves; r++ {
		tbl := p.net.RouteTable(r)
		// Every leaf hears of every downlink outage; an uplink outage
		// is its own leaf's alone.
		outage := false
		for _, l := range p.downs {
			info, _ := p.net.LeafSpineLinkInfo(l)
			outage = outage || !info.Up || info.Rack == r
		}
		pinned := p.pins[r].b >= 0
		if clean := !pinned && !outage; tbl.Clean() != clean {
			p.failf("leaf %d: Clean() = %v, want %v", r, tbl.Clean(), clean)
		}
		for q := 0; q < p.ls.Leaves; q++ {
			if q == r {
				continue
			}
			// Spine s is live for r → q with its uplink from r and its
			// downlink to q both up.
			anyLive := false
			for s := range p.live {
				p.live[s] = !p.down(p.uplink(r, s)) && !p.down(p.downlink(q, s))
				anyLive = anyLive || p.live[s]
			}
			send := -1
			for b, f := range p.probe {
				a, got := p.assigned(r, b), tbl.Pick(q, f)
				switch {
				case p.live[a] && got != a:
					p.failf("leaf %d → rack %d bucket %d: Pick moved it off its live spine %d to %d", r, q, b, a, got)
				case anyLive && !p.live[got]:
					p.failf("leaf %d → rack %d bucket %d: Pick lands on dead spine %d while a live one exists", r, q, b, got)
				case !anyLive && got != a:
					p.failf("leaf %d → rack %d bucket %d: with no live spine Pick = %d, want the assigned %d", r, q, b, got, a)
				case len(p.downs) == 0 && !pinned && got != topology.ECMPSpine(f, spines):
					p.failf("leaf %d → rack %d flow %d: recovered Pick = %d, ECMPSpine = %d", r, q, f, got, topology.ECMPSpine(f, spines))
				}
				if send < 0 && got != a {
					send = b
				}
			}
			if !anyLive { // the packet would blackhole at the dead link
				continue
			}
			if send < 0 { // nothing detours: any bucket will do
				send = (p.steps + q) % buckets
			}
			p.forward(r, q, p.probe[send])
		}
	}
}

// forward sends one real packet from a host on leaf r to a host on
// rack q and checks that it crossed exactly the links AppendPathFlow
// names (the links PASE and PDQ arbitrate for the flow), none of them
// down: it must land at its destination after one hop per path link,
// each of which transmitted it once.
func (p *prover) forward(r, q int, flow pkt.FlowID) {
	h := p.ls.HostsPerLeaf
	src, dst := pkt.NodeID(r*h+p.steps%h), pkt.NodeID(q*h+(p.steps+r)%h)
	p.path = p.net.AppendPathFlow(p.path[:0], src, dst, flow)
	p.tx = p.tx[:0]
	for _, l := range p.path {
		if p.down(l.ID) {
			p.failf("flow %d from leaf %d to rack %d: AppendPathFlow crosses down link %d", flow, r, q, l.ID)
		}
		p.tx = append(p.tx, l.Port.TxPackets)
	}
	p.at = -1
	p.net.Hosts[src].Send(&pkt.Packet{Size: 100, Src: src, Dst: dst, Flow: flow})
	if err := p.eng.Run(); err != nil {
		p.t.Fatal(err)
	}
	if p.at != dst || p.hops != len(p.path) {
		p.failf("flow %d from host %d: packet landed at node %d after %d hops, want host %d after %d (%v)",
			flow, src, p.at, p.hops, dst, len(p.path), p.path)
	}
	for i, l := range p.path {
		if l.Port.TxPackets != p.tx[i]+1 {
			p.failf("flow %d from host %d to %d: packet did not cross %v of %v", flow, src, dst, l, p.path)
		}
	}
}

// failureSets lists every set of at most two fabric links and, where
// that is larger, every leaf's all-but-one uplinks.
func (p *prover) failureSets() [][]int {
	var links []int
	for r := 0; r < p.ls.Leaves; r++ {
		for s := 0; s < p.ls.Spines; s++ {
			links = append(links, p.uplink(r, s), p.downlink(r, s))
		}
	}
	var sets [][]int
	for i, a := range links {
		sets = append(sets, []int{a})
		for _, b := range links[i+1:] {
			sets = append(sets, []int{a, b})
		}
	}
	for r := 0; p.ls.Spines > 3 && r < p.ls.Leaves; r++ {
		for keep := 0; keep < p.ls.Spines; keep++ {
			var set []int
			for s := 0; s < p.ls.Spines; s++ {
				if s != keep {
					set = append(set, p.uplink(r, s))
				}
			}
			sets = append(sets, set)
		}
	}
	return sets
}

// permutations returns every order of set.
func permutations(set []int) [][]int {
	if len(set) <= 1 {
		return [][]int{set}
	}
	var out [][]int
	for i, x := range set {
		rest := append(append([]int{}, set[:i]...), set[i+1:]...)
		for _, tail := range permutations(rest) {
			out = append(out, append([]int{x}, tail...))
		}
	}
	return out
}

// sweep fails each set in each of its orders and recovers it in the
// same order, so every recovery order runs; each sequence ends on the
// fully recovered fabric.
func (p *prover) sweep(sets [][]int) {
	for _, set := range sets {
		for _, order := range permutations(set) {
			p.trail = p.trail[:0]
			for _, l := range order {
				p.set(l, true)
			}
			for _, l := range order {
				p.set(l, false)
			}
		}
	}
}

// pin gives leaf r the one TE override bucket b → spine s, or clears
// its override when b is -1.
func (p *prover) pin(r, b, s int) {
	if old := p.pins[r].b; old >= 0 {
		p.net.RouteTable(r).SetOverride(old, -1)
	}
	if b >= 0 {
		p.net.RouteTable(r).SetOverride(b, s)
	}
	p.pins[r].b, p.pins[r].s = b, s
}

// TestRoutesEveryFailureSet is the proof over every small failure set
// on the scenario fabrics (leaf-spine, te-failover, leaf-spine-wide)
// and a 5 × 4 fabric with a prime host count per leaf. On te-failover
// every sequence also runs under each single TE override.
func TestRoutesEveryFailureSet(t *testing.T) {
	for _, fab := range []struct {
		name                  string
		leaves, spines, hosts int
		te                    bool
	}{
		{"leaf-spine-4x2", 4, 2, 10, false},
		{"te-failover-4x3", 4, 3, 10, true},
		{"leaf-spine-wide-8x4", 8, 4, 10, false},
		{"5x4-7-hosts", 5, 4, 7, false},
	} {
		t.Run(fab.name, func(t *testing.T) {
			p := newProver(t, fab.leaves, fab.spines, fab.hosts)
			p.check()
			sets := p.failureSets()
			p.sweep(sets)
			if fab.te {
				// Every TE move a table can hold alone, bucket b off
				// its default spine to s, dealt one per leaf per round.
				var moves [][2]int
				for b := range p.probe {
					for s := 0; s < fab.spines; s++ {
						if s != b%fab.spines {
							moves = append(moves, [2]int{b, s})
						}
					}
				}
				for len(moves) > 0 {
					for r := 0; r < fab.leaves && len(moves) > 0; r++ {
						p.pin(r, moves[0][0], moves[0][1])
						moves = moves[1:]
					}
					p.trail = p.trail[:0]
					p.check()
					p.sweep(sets)
					for r := 0; r < fab.leaves; r++ {
						p.pin(r, -1, 0)
					}
					p.check()
				}
			}
			t.Logf("%d failure sets, %d checked steps", len(sets), p.steps)
		})
	}
}

// TestRouteTableEveryBucketState covers, for 2–4 spines, every state
// one bucket can reach: each spine live or dead toward the destination
// by either outage kind, × the bucket's default or a TE pin to each
// spine. Pick and PickBucket keep a live assigned spine, else take the
// first live one scanning upward, else keep the assigned one; the
// table is clean only with no outage and no pin.
func TestRouteTableEveryBucketState(t *testing.T) {
	const dst = 1
	for spines := 2; spines <= 4; spines++ {
		ports := make([]int, spines)
		for s := range ports {
			ports[s] = s
		}
		states := 1
		for s := 0; s < spines; s++ {
			states *= 3
		}
		// state's base-3 digit s: 0 live, 1 uplink down, 2 downlink to
		// dst down.
		for state := 0; state < states; state++ {
			tbl := topology.NewRouteTable(0, ports, 2)
			live := make([]bool, spines)
			for s, d := 0, state; s < spines; s, d = s+1, d/3 {
				switch d % 3 {
				case 0:
					live[s] = true
				case 1:
					tbl.SetUplink(s, true)
				case 2:
					tbl.SetDstDown(dst, s, true)
				}
			}
			for b := 0; b < tbl.Buckets(); b++ {
				f := pkt.FlowID(1)
				for tbl.BucketOf(f) != b {
					f++
				}
				for pin := -1; pin < spines; pin++ {
					tbl.SetOverride(b, pin)
					a := b % spines
					if pin >= 0 {
						a = pin
					}
					want := a
					for k := 0; k < spines; k++ {
						if c := (a + k) % spines; live[c] {
							want = c
							break
						}
					}
					if got := tbl.PickBucket(dst, b); got != want {
						t.Fatalf("%d spines, live %v, bucket %d pinned %d: PickBucket = %d, want %d", spines, live, b, pin, got, want)
					}
					if got := tbl.Pick(dst, f); got != want {
						t.Fatalf("%d spines, live %v, bucket %d pinned %d: Pick(flow %d) = %d, want %d", spines, live, b, pin, f, got, want)
					}
					if clean := state == 0 && pin < 0; tbl.Clean() != clean {
						t.Fatalf("%d spines, live %v, bucket %d pinned %d: Clean() = %v, want %v", spines, live, b, pin, tbl.Clean(), clean)
					}
				}
				tbl.SetOverride(b, -1)
			}
		}
	}
}
