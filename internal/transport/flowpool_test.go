package transport

import (
	"reflect"
	"strings"
	"testing"

	"pase/internal/check"
	"pase/internal/metrics"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/pool"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/workload"
)

// runOne schedules one flow at the current instant and runs it out.
func runOne(t *testing.T, net *topology.Network, d *Driver, id pkt.FlowID, segs int64) {
	t.Helper()
	d.Schedule([]workload.FlowSpec{{ID: id, Src: 0, Dst: 1, Size: segs * pkt.MSS, Start: net.Eng.Now()}})
	if _, err := d.Run(net.Eng.Now().Add(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if recs := d.Collector.Records(); !recs[len(recs)-1].Done || recs[len(recs)-1].ID != uint64(id) {
		t.Fatalf("flow %d did not complete: %+v", id, recs[len(recs)-1])
	}
}

// TestNothingSurvivesALife: a 4000-segment flow that lost packets, then
// a 3-segment flow through the same sender and receiver records. The
// second life starts exactly where a new record would and its receiver
// knows none of the first flow's arrivals.
func TestNothingSurvivesALife(t *testing.T) {
	net, d, ctrl := testRig(t)
	ctrl.initCwnd = 64
	net.Links[0].Port.Faults = loseOnce{10: true, 11: true, 2000: true}
	var s1 *Sender
	d.OnFlowStart = func(s *Sender) { s1 = s }
	runOne(t, net, d, 1, 4000)
	if s1.Retx < 3 || s1.srtt == 0 || len(s1.state) != 4000 || s1.ackedCount != 4000 {
		t.Fatalf("first life ended with retx=%d srtt=%v state=%d acked=%d", s1.Retx, s1.srtt, len(s1.state), s1.ackedCount)
	}
	pl := d.Stack(1).flows
	if pl.senders.Len() != 1 || pl.receivers.Len() != 1 || len(d.Stack(1).receivers) != 0 {
		t.Fatalf("after one flow the pool holds %d senders and %d receivers, stack 1 %d receivers; want 1, 1, 0",
			pl.senders.Len(), pl.receivers.Len(), len(d.Stack(1).receivers))
	}
	r1 := pl.receivers.Take()
	pl.receivers.Put(r1)

	ctrl.initCwnd = 1
	var s2 *Sender
	d.OnFlowStart = func(s *Sender) { s2 = s }
	var probeAck *pkt.Packet
	inner := net.Host(0).Handler
	net.Host(0).Handler = func(p *pkt.Packet) {
		if p.Type == pkt.ProbeAck {
			cp := *p
			probeAck = &cp
		}
		inner(p)
	}
	d.Schedule([]workload.FlowSpec{{ID: 2, Src: 0, Dst: 1, Size: 3 * pkt.MSS, Start: net.Eng.Now()}})
	net.Eng.Step() // the arrival: segment 0 is on the wire
	if s2 != s1 {
		t.Fatal("the second flow did not reuse the first flow's sender record")
	}
	if s2.Cwnd != 1 || s2.SSThresh != 1<<20 || s2.Retx != 0 || s2.Timeouts != 0 || s2.srtt != 0 ||
		s2.rttvar != 0 || s2.backoff != 0 || s2.cumAck != 0 || s2.ackedCount != 0 || s2.ackedBytes != 0 ||
		s2.dupAcks != 0 || s2.recoverSeq != 0 || len(s2.retxQ) != 0 || s2.Done || s2.Aborted {
		t.Fatalf("second life started with first-life state: %+v", *s2)
	}
	if len(s2.state) != 3 || s2.state[0] != segInflight || s2.state[1] != segUnsent || s2.state[2] != segUnsent {
		t.Fatalf("second life's segment record = %v, want [inflight unsent unsent]", s2.state)
	}
	// Ask the receiver about a segment only the first flow delivered.
	s2.SendProbe(2)
	if _, err := d.Run(net.Eng.Now().Add(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if probeAck == nil || probeAck.Have || probeAck.Flow != 2 {
		t.Fatalf("probe for an unseen segment answered %+v, want Have=false", probeAck)
	}
	r2 := pl.receivers.Take()
	if r2 != r1 || r2.flow != 2 || len(r2.got) != 3 {
		t.Fatalf("second flow's receiver: reused=%v flow=%d arrivals=%d, want the same record, flow 2, 3", r2 == r1, r2.flow, len(r2.got))
	}
}

// TestPoolDifferential: the same lossy 500-flow workload with every
// record falling to the allocator (lists capped at 0) and with the
// lists at their normal cap produces identical flow records.
func TestPoolDifferential(t *testing.T) {
	run := func(limit int) ([]metrics.FlowRecord, metrics.Summary, int) {
		eng := sim.NewEngine()
		net := topology.Build(eng, topology.SingleRack(6, func(topology.QueueKind) netem.Queue {
			return netem.NewDropTail(12)
		}))
		ctrl := &nopControl{initCwnd: 16, minRTO: 2 * sim.Millisecond}
		d := NewDriver(net, func(*Sender) Control { return ctrl })
		pl := d.Stack(0).flows
		pl.senders, pl.receivers = pool.New[Sender](1, limit), pool.New[receiver](1, limit)
		spec := workload.Spec{
			Pattern:   workload.AllToAll{Hosts: workload.HostRange(0, 6)},
			Sizes:     workload.UniformSize{Min: 2_000, Max: 198_000},
			Load:      0.9,
			Reference: 6 * netem.Gbps,
			NumFlows:  500,
		}
		d.Schedule(spec.Generate(sim.NewRand(11), 1))
		sum, err := d.Run(sim.Time(60 * sim.Second))
		if err != nil {
			t.Fatal(err)
		}
		return d.Collector.Records(), sum, pl.senders.Len() + pl.receivers.Len()
	}
	want, wantSum, idle := run(0)
	if idle != 0 {
		t.Fatalf("a pool limited to 0 kept %d records", idle)
	}
	got, gotSum, idle := run(flowPoolCap)
	if idle == 0 {
		t.Fatal("the pool kept nothing: the differential compared the allocator with itself")
	}
	if wantSum.Completed != 500 || wantSum.Retransmits == 0 || wantSum.Timeouts == 0 {
		t.Fatalf("workload is not lossy enough to mean anything: %+v", wantSum)
	}
	if !reflect.DeepEqual(got, want) || gotSum != wantSum {
		t.Fatalf("pooled and unpooled runs differ:\n pooled   %+v\n unpooled %+v", gotSum, wantSum)
	}
}

// TestLateRetransmissionGetsFreshReceiver pins what happens to a data
// segment that arrives after its flow ended and the receiver went back
// to the pool: it is given a fresh record — which knows nothing of the
// flow's earlier arrivals, nor of any other flow's — is acknowledged,
// and that record stays on the stack until the run ends.
func TestLateRetransmissionGetsFreshReceiver(t *testing.T) {
	net, d, _ := testRig(t)
	runOne(t, net, d, 1, 20)
	rx := d.Stack(1)
	if len(rx.receivers) != 0 {
		t.Fatal("the finished flow's receiver was not released")
	}
	var acks []pkt.Packet
	inner := net.Host(0).Handler
	net.Host(0).Handler = func(p *pkt.Packet) {
		acks = append(acks, *p)
		inner(p)
	}
	net.Host(1).Handler(&pkt.Packet{Type: pkt.Data, Flow: 1, Src: 0, Dst: 1, Seq: 7, Size: pkt.MTU, SentAt: 1})
	ghost := rx.receivers[1]
	if ghost == nil || rx.flows.receivers.Len() != 0 {
		t.Fatal("the late segment should have drawn the released record from the pool")
	}
	if ghost.firstMissing != 0 || len(ghost.got) != 8 || ghost.have(6) || !ghost.have(7) {
		t.Fatalf("ghost receiver carries earlier arrivals: firstMissing=%d got=%v", ghost.firstMissing, ghost.got)
	}
	if err := net.Eng.RunUntil(net.Eng.Now().Add(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(acks) != 1 || acks[0].Type != pkt.Ack || acks[0].Flow != 1 || acks[0].SackSeq != 7 || acks[0].CumAck != 0 {
		t.Fatalf("late segment was answered with %+v, want one ACK for segment 7 with CumAck 0", acks)
	}
	// The next flow neither takes the ghost's record nor disturbs it.
	runOne(t, net, d, 2, 20)
	if rx.receivers[1] != ghost || len(rx.receivers) != 1 || len(ghost.got) != 8 {
		t.Fatalf("ghost receiver did not survive the next flow: %d receivers on the stack", len(rx.receivers))
	}
}

// TestReleasedRecordsPoisoned: on a checked engine a finished flow's
// sender and receiver are retired, not recycled, and touching either
// afterwards panics instead of acting on whichever flow would have
// reused the record.
func TestReleasedRecordsPoisoned(t *testing.T) {
	eng := sim.NewEngine()
	eng.AttachCheck(check.New(func() int64 { return int64(eng.Now()) }))
	net, d, _ := testRigOn(t, eng)
	d.Schedule([]workload.FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: 20 * pkt.MSS}})
	for d.Stack(1).receivers[1] == nil && net.Eng.Step() {
	}
	s1, r1 := d.Stack(0).Sender(1), d.Stack(1).receivers[1]
	if s1 == nil || r1 == nil {
		t.Fatal("flow 1 never reached its receiver")
	}
	if sum, err := d.Run(sim.Time(sim.Second)); err != nil || sum.Completed != 1 {
		t.Fatalf("flow 1 did not complete: %+v, %v", sum, err)
	}
	pl := d.Stack(0).flows
	if pl.senders.Len()+pl.receivers.Len() != 0 {
		t.Fatal("a released record went back into circulation under the checker")
	}
	d.OnFlowStart = func(s *Sender) {
		if s == s1 {
			t.Fatal("a poisoned sender was reused")
		}
	}
	runOne(t, net, d, 2, 20)
	if r2 := d.Stack(1).receivers[2]; r2 != nil {
		t.Fatal("flow 2's receiver was not released")
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if r, _ := recover().(string); !strings.Contains(r, "after its release") {
				t.Fatalf("%s: recovered %q, want the use-after-release panic", what, r)
			}
		}()
		f()
	}
	mustPanic("Kick on a released sender", s1.Kick)
	mustPanic("TransmitOne on a released sender", func() { s1.TransmitOne() })
	mustPanic("Abort on a released sender", s1.Abort)
	mustPanic("packet to a released receiver", func() { r1.onPacket(&pkt.Packet{Type: pkt.Data}) })
}
