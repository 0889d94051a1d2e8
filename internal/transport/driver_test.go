package transport_test

import (
	"reflect"
	"strings"
	"testing"

	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/transport"
	"pase/internal/transport/dctcp"
	"pase/internal/workload"
)

// TestScheduleOrdersArrivals: Schedule owes nothing to the calendar for
// the order of its input. Flows start in Start order whatever order the
// slice lists them in, flows sharing a Start keep their slice order and
// start inside one event, and an empty schedule is an error from Run.
func TestScheduleOrdersArrivals(t *testing.T) {
	us := func(n int64) sim.Time { return sim.Time(n * int64(sim.Microsecond)) }
	fl := func(id pkt.FlowID, src pkt.NodeID, start sim.Time) workload.FlowSpec {
		return workload.FlowSpec{ID: id, Src: src, Dst: 3, Size: 20_000, Start: start}
	}
	bg := func(id pkt.FlowID, src pkt.NodeID) workload.FlowSpec {
		f := fl(id, src, 0)
		f.Size, f.Background = 1<<30, true
		return f
	}
	for _, tc := range []struct {
		name      string
		flows     []workload.FlowSpec
		order     []pkt.FlowID // start order
		events    []int        // flows started per arrival event
		completed int
		err       string
	}{
		{"unsorted input",
			[]workload.FlowSpec{fl(1, 0, us(900)), fl(2, 1, us(100)), fl(3, 2, us(500)), fl(4, 0, us(0))},
			[]pkt.FlowID{4, 2, 3, 1}, []int{1, 1, 1, 1}, 4, ""},
		{"equal-Start batch keeps slice order",
			[]workload.FlowSpec{fl(5, 2, us(300)), fl(3, 0, us(300)), fl(9, 1, us(300)), fl(1, 0, us(20))},
			[]pkt.FlowID{1, 5, 3, 9}, []int{1, 3}, 4, ""},
		{"t=0 background flows start in one event",
			[]workload.FlowSpec{fl(1, 2, us(40)), bg(100, 0), bg(101, 1)},
			[]pkt.FlowID{100, 101, 1}, []int{2, 1}, 1, ""},
		{"empty slice", nil, nil, nil, 0, "no foreground flows scheduled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := singleRack(4)
			d := transport.NewDriver(net, dctcp.New(dctcp.DefaultConfig()))
			var order []pkt.FlowID
			var events []int
			var lastEvent uint64
			d.OnFlowStart = func(s *transport.Sender) {
				if s.Spec.Start != net.Eng.Now() {
					t.Errorf("flow %d started at %v, want %v", s.Spec.ID, net.Eng.Now(), s.Spec.Start)
				}
				order = append(order, s.Spec.ID)
				if net.Eng.Executed != lastEvent || len(events) == 0 {
					events, lastEvent = append(events, 0), net.Eng.Executed
				}
				events[len(events)-1]++
			}
			input := append([]workload.FlowSpec(nil), tc.flows...)
			d.Schedule(tc.flows)
			sum, err := d.Run(sim.Time(sim.Second))
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Run returned %v, want an error containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(order, tc.order) || !reflect.DeepEqual(events, tc.events) {
				t.Fatalf("flows started in order %v over events %v, want %v over %v", order, events, tc.order, tc.events)
			}
			if sum.Completed != tc.completed {
				t.Fatalf("completed = %d, want %d", sum.Completed, tc.completed)
			}
			if !reflect.DeepEqual(input, tc.flows) {
				t.Fatal("Schedule reordered the caller's slice")
			}
		})
	}
}
