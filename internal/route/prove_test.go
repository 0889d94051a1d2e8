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
// gates it, which the table's own PickFrom does not.

// prover drives one leaf-spine fabric's controller through failure
// sequences and checks every leaf's data path after each step.
type prover struct {
	t   *testing.T
	ls  topology.Config
	eng *sim.Engine
	net *topology.Network
	ctl *Controller

	// downs lists the fabric links the sequence has failed; trail is
	// the sequence so far (+id failed, -id recovered) for messages.
	downs []int
	trail []int
	steps int
	// probe[s] is a flow that hashes onto spine s.
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
	ls.Racks, ls.Spines, ls.HostsPerRack = leaves, spines, hostsPerLeaf
	p := &prover{t: t, ls: ls, eng: sim.NewEngine(), live: make([]bool, spines)}
	p.net = topology.Build(p.eng, ls)
	p.ctl = Attach(Params{Net: p.net, Eng: p.eng})
	for _, h := range p.net.Hosts {
		h.Handler = func(pk *pkt.Packet) { p.at, p.hops = h.ID(), int(pk.Hops) }
	}
	p.probe = make([]pkt.FlowID, spines)
	for n, f := 0, pkt.FlowID(1); n < spines; f++ {
		if s := topology.ECMPSpine(f, spines); p.probe[s] == 0 {
			p.probe[s], n = f, n+1
		}
	}
	return p
}

func (p *prover) uplink(r, s int) int   { return p.ls.UplinkID(r, s) }
func (p *prover) downlink(q, s int) int { return p.ls.UplinkID(q, s) + 1 }

func (p *prover) down(link int) bool { return slices.Contains(p.downs, link) }

func (p *prover) failf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("%dx%d, after %v: "+format,
		append([]any{p.ls.Racks, p.ls.Spines, p.trail}, args...)...)
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
// probe flow hashed onto every spine toward every foreign rack, where
// Pick sends it; then it forwards one real packet per destination rack.
func (p *prover) check() {
	spines := p.ls.Spines
	for r := 0; r < p.ls.Racks; r++ {
		tbl := p.net.RouteTable(r)
		// Every leaf hears of every downlink outage; an uplink outage
		// is its own leaf's alone.
		outage := false
		for _, l := range p.downs {
			info, _ := p.net.LeafSpineLinkInfo(l)
			outage = outage || !info.Up || info.Rack == r
		}
		if tbl.Clean() == outage {
			p.failf("leaf %d: Clean() = %v with outage %v", r, tbl.Clean(), outage)
		}
		for q := 0; q < p.ls.Racks; q++ {
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
			for a, f := range p.probe {
				got := tbl.Pick(q, f)
				switch {
				case p.live[a] && got != a:
					p.failf("leaf %d → rack %d flow %d: Pick moved it off its live spine %d to %d", r, q, f, a, got)
				case anyLive && !p.live[got]:
					p.failf("leaf %d → rack %d flow %d: Pick lands on dead spine %d while a live one exists", r, q, f, got)
				case !anyLive && got != a:
					p.failf("leaf %d → rack %d flow %d: with no live spine Pick = %d, want its hashed spine %d", r, q, f, got, a)
				}
				if send < 0 && got != a {
					send = a
				}
			}
			if !anyLive { // the packet would blackhole at the dead link
				continue
			}
			if send < 0 { // nothing detours: any probe will do
				send = (p.steps + q) % spines
			}
			p.forward(r, q, p.probe[send])
		}
	}
}

// forward sends one real packet from a host on leaf r to a host on
// rack q and checks that it crossed exactly the links AppendPath
// names (the links PASE and PDQ arbitrate for the flow), none of them
// down: it must land at its destination after one hop per path link,
// each of which transmitted it once.
func (p *prover) forward(r, q int, flow pkt.FlowID) {
	h := p.ls.HostsPerRack
	src, dst := pkt.NodeID(r*h+p.steps%h), pkt.NodeID(q*h+(p.steps+r)%h)
	p.path, _ = p.net.AppendPath(p.path[:0], src, dst, flow)
	p.tx = p.tx[:0]
	for _, l := range p.path {
		if p.down(l.ID) {
			p.failf("flow %d from leaf %d to rack %d: AppendPath crosses down link %d", flow, r, q, l.ID)
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
	for r := 0; r < p.ls.Racks; r++ {
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
	for r := 0; p.ls.Spines > 3 && r < p.ls.Racks; r++ {
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

// TestRoutesEveryFailureSet is the proof over every small failure set
// on the scenario fabrics (leaf-spine, te-failover, leaf-spine-wide)
// and a 5 × 4 fabric with a prime host count per leaf.
func TestRoutesEveryFailureSet(t *testing.T) {
	for _, fab := range []struct {
		name                  string
		leaves, spines, hosts int
	}{
		{"leaf-spine-4x2", 4, 2, 10},
		{"te-failover-4x3", 4, 3, 10},
		{"leaf-spine-wide-8x4", 8, 4, 10},
		{"5x4-7-hosts", 5, 4, 7},
	} {
		t.Run(fab.name, func(t *testing.T) {
			p := newProver(t, fab.leaves, fab.spines, fab.hosts)
			p.check()
			sets := p.failureSets()
			p.sweep(sets)
			t.Logf("%d failure sets, %d checked steps", len(sets), p.steps)
		})
	}
}

// TestRouteTableEverySpineState covers, for 2–4 spines, every state
// the table can be in toward one destination: each spine live or dead
// by either outage kind. For a flow hashed onto each spine, Pick and
// PickFrom keep a live hashed spine, else take the first live one
// scanning upward, else keep the hashed one; the table is clean only
// with no outage.
func TestRouteTableEverySpineState(t *testing.T) {
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
			if clean := state == 0; tbl.Clean() != clean {
				t.Fatalf("%d spines, live %v: Clean() = %v, want %v", spines, live, tbl.Clean(), clean)
			}
			for h := 0; h < spines; h++ {
				f := pkt.FlowID(1)
				for topology.ECMPSpine(f, spines) != h {
					f++
				}
				want := h
				for k := 0; k < spines; k++ {
					if c := (h + k) % spines; live[c] {
						want = c
						break
					}
				}
				if got := tbl.PickFrom(dst, h); got != want {
					t.Fatalf("%d spines, live %v: PickFrom(%d) = %d, want %d", spines, live, h, got, want)
				}
				if got := tbl.Pick(dst, f); got != want {
					t.Fatalf("%d spines, live %v: Pick(flow %d, hashed %d) = %d, want %d", spines, live, f, h, got, want)
				}
			}
		}
	}
}
