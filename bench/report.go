package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// layerRow ties a layer-table row to the count and the driver that
// best explain it; either may be empty.
type layerRow struct {
	Layer, Count, Driver string
}

var layerRows = []layerRow{
	{"sim", "sim.events_per_flow", "drv.sim.schedule_fire_ns"},
	{"netem", "netem.pkts_per_flow", "drv.netem.port_hop_ns"},
	{"transport", "transport.retx_per_flow", "drv.transport.pkt_ns"},
	{"arbitration", "arbitration.msgs_per_flow", "drv.arbitration.refresh_ns"},
	{"endhost", "", ""},
	{"topology", "", "drv.topology.route_pick_ns"},
	{"workload", "", "drv.workload.stream_next_ns"},
	{"metrics", "", "drv.metrics.stream_add_ns"},
	{"obs", "", "drv.obs.counter_inc_ns"},
	{"experiments", "", ""},
	{"runtime.alloc", "", "drv.transport.pkt_allocs"},
	{"runtime.gc", "runtime.gc_count", ""},
	{"runtime.other", "", ""},
}

func tab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
}

// printSet writes every metric of the set by name with its unit, and
// one layer table per traced workload.
func printSet(w io.Writer, rs *resultSet) {
	fmt.Fprintf(w, "pase bench: seed=%d scale=%g gomaxprocs=%d %s rev=%s yardstick=%.3f ns (drift %.1f%%) wall=%.1fs\n\n",
		rs.Seed, rs.Scale, rs.GOMAXPROCS, rs.GoVersion, rs.GitRev,
		rs.Host["host.yardstick_ns"].Value, rs.Host["host.yardstick_drift_pct"].Value, rs.WallS)

	tw := tab(w)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tn\tunit\tspread\tbound")
	for _, wr := range rs.Workloads {
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\t%.2f%%\t%.0f%%\n",
				wr.Name, d.Name, s.Median, s.Q1, s.Q3, s.N, s.Unit, 100*s.spread(), 100*d.Bound)
		}
		fmt.Fprintf(tw, "%s\tops_attempted\t%d\t\t\t\tcount\t\t\n", wr.Name, wr.OpsAttempted)
		fmt.Fprintf(tw, "%s\tops_failed\t%d\t\t\t\tcount\t\t\n", wr.Name, wr.OpsFailed)
	}
	tw.Flush()
	for _, wr := range rs.Workloads {
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "FAILED %s: %s\n", wr.Name, f)
		}
	}

	for _, wr := range rs.Workloads {
		if wr.PerLayer == nil {
			continue
		}
		fmt.Fprintln(w)
		printLayerTable(w, rs, wr, nil, nil)
		fmt.Fprintf(w, "\nper-layer metrics, %s:\n", wr.Name)
		tw := tab(w)
		for _, d := range perLayer {
			if v, ok := wr.PerLayer[d.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, v.Value, v.Unit)
			}
		}
		tw.Flush()
	}
	if rs.Drivers != nil {
		fmt.Fprintf(w, "\nlayer drivers and host:\n")
		tw := tab(w)
		for _, d := range perLayer {
			for _, part := range []map[string]value{rs.Drivers, rs.Host} {
				if v, ok := part[d.Name]; ok {
					fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, v.Value, v.Unit)
				}
			}
		}
		tw.Flush()
	}
}

// printLayerTable prints the layer budget of one workload: each row's
// CPU share times sim.ns_per_event, so the rows add up to the
// end-to-end figure by construction. With a second set it prints both
// sides and stars the rows that moved.
func printLayerTable(w io.Writer, a *resultSet, wa *workloadResult, b *resultSet, wb *workloadResult) {
	ma := a.layerMetrics(wa)
	nsA := ma["sim.ns_per_event"].Value
	fmt.Fprintf(w, "layer table, %s: sim.ns_per_event = %.1f ns", wa.Name, nsA)
	var mb map[string]value
	if b != nil {
		mb = b.layerMetrics(wb)
		fmt.Fprintf(w, " -> %.1f ns", mb["sim.ns_per_event"].Value)
	}
	fmt.Fprintln(w)
	tw := tab(w)
	fmt.Fprintln(tw, "  layer\tcpu_share\tns/event\tcount\tdriver\t")
	var sum float64
	for _, r := range layerRows {
		share := ma[shareMetric(r.Layer)].Value
		sum += share * nsA
		cell := func(name string, m map[string]value) string {
			if name == "" {
				return "-"
			}
			return fmt.Sprintf("%.4g", m[name].Value)
		}
		if b == nil {
			fmt.Fprintf(tw, "  %s\t%.3f\t%.1f\t%s %s\t%s %s\t\n", r.Layer, share, share*nsA,
				r.Count, cell(r.Count, ma), r.Driver, cell(r.Driver, ma))
			continue
		}
		nsB := mb["sim.ns_per_event"].Value
		shareB := mb[shareMetric(r.Layer)].Value
		moved := ""
		if rowMoved(share*nsA, shareB*nsB, nsA, ma[r.Count].Value, mb[r.Count].Value, ma[r.Driver].Value, mb[r.Driver].Value) {
			moved = "*"
		}
		fmt.Fprintf(tw, "  %s\t%.3f -> %.3f\t%.1f -> %.1f\t%s %s -> %s\t%s %s -> %s\t%s\n",
			r.Layer, share, shareB, share*nsA, shareB*nsB,
			r.Count, cell(r.Count, ma), cell(r.Count, mb),
			r.Driver, cell(r.Driver, ma), cell(r.Driver, mb), moved)
	}
	fmt.Fprintf(tw, "  total\t\t%.1f\t\t\t\n", sum)
	tw.Flush()
}

// rowMoved reports whether a layer row differs between two sets: its
// profiled time by more than 2% of the whole event cost, its exact
// count at all, or its driver by more than 10%.
func rowMoved(nsA, nsB, totalA, countA, countB, drvA, drvB float64) bool {
	if math.Abs(nsB-nsA) > 0.02*totalA {
		return true
	}
	if countA != countB {
		return true
	}
	return drvA > 0 && math.Abs(drvB-drvA) > 0.10*drvA
}

// driverLine is the contract's last line of output for one workload:
// the end-to-end metrics with tracing off, the per-layer ones with it
// on.
func driverLine(rs *resultSet, wr *workloadResult, trace bool) ([]byte, error) {
	metrics := make(map[string]value)
	if trace {
		metrics = rs.layerMetrics(wr)
	} else {
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			metrics[d.Name] = value{s.Median, s.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.OpsAttempted, wr.OpsFailed, metrics})
}

// verdict judges metric d between a base side a and a new side b.
// Unresolved means the measurement cannot tell: a side's own quartiles
// are further apart than the bound, or the host drifted under a set.
func verdict(d metricDef, a, b stat, driftA, driftB float64) string {
	if a.spread() > d.Bound || b.spread() > d.Bound || driftA > 10 || driftB > 10 {
		return "unresolved"
	}
	if a.Median == 0 {
		return "unresolved"
	}
	delta := (b.Median - a.Median) / math.Abs(a.Median)
	if d.Better == "lower" {
		delta = -delta
	}
	switch {
	case delta > d.Bound:
		return "better"
	case delta < -d.Bound:
		return "worse"
	}
	return "unchanged"
}

// compareSets prints one row per workload and end-to-end metric, then
// the layer tables side by side. It reports whether any row read
// "worse".
func compareSets(w io.Writer, a, b *resultSet) bool {
	driftA := a.Host["host.yardstick_drift_pct"].Value
	driftB := b.Host["host.yardstick_drift_pct"].Value
	fmt.Fprintf(w, "base: rev=%s seed=%d scale=%g yardstick=%.3f ns (drift %.1f%%)\n",
		a.GitRev, a.Seed, a.Scale, a.Host["host.yardstick_ns"].Value, driftA)
	fmt.Fprintf(w, "new:  rev=%s seed=%d scale=%g yardstick=%.3f ns (drift %.1f%%)\n\n",
		b.GitRev, b.Seed, b.Scale, b.Host["host.yardstick_ns"].Value, driftB)

	byName := make(map[string]*workloadResult, len(b.Workloads))
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	worse := false
	tw := tab(w)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tnew median [q1, q3]\tdelta\tbound\tverdict")
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := verdict(d, sa, sb, driftA, driftB)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%% of %.6g %s\t%.0f%%\t%s\n",
				wa.Name, d.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3,
				100*(sb.Median-sa.Median)/sa.Median, sa.Median, sa.Unit, 100*d.Bound, v)
		}
	}
	tw.Flush()

	for _, wa := range a.Workloads {
		if wb := byName[wa.Name]; wb != nil && wa.PerLayer != nil && wb.PerLayer != nil {
			fmt.Fprintln(w)
			printLayerTable(w, a, wa, b, wb)
		}
	}
	if a.Drivers != nil && b.Drivers != nil {
		fmt.Fprintf(w, "\nlayer drivers (* moved by more than 10%%):\n")
		names := make([]string, 0, len(a.Drivers))
		for n := range a.Drivers {
			names = append(names, n)
		}
		sort.Strings(names)
		tw := tab(w)
		for _, n := range names {
			va, vb := a.Drivers[n], b.Drivers[n]
			moved := ""
			if va.Value > 0 && math.Abs(vb.Value-va.Value) > 0.10*va.Value {
				moved = "*"
			}
			fmt.Fprintf(tw, "  %s\t%.4g -> %.4g\t%s\t%s\n", n, va.Value, vb.Value, va.Unit, moved)
		}
		tw.Flush()
	}
	return worse
}
