package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"pase/internal/obs"
)

// Manifest is the JSON record emitted alongside a figure's TSV: the
// parameters, seeds, code revision, wall-clock cost and merged
// observability snapshot of one run — enough to reproduce it and to
// diff two runs counter by counter.
type Manifest struct {
	Tool      string `json:"tool"`
	Figure    string `json:"figure,omitempty"`
	Title     string `json:"title,omitempty"`
	GitRev    string `json:"git_rev,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	// Started is the wall-clock start in RFC 3339; WallClockMS is the
	// run's real-time cost.
	Started     string  `json:"started,omitempty"`
	WallClockMS float64 `json:"wall_clock_ms"`

	// Params is the run's Opts; its json tags pick the fields recorded.
	Params Opts `json:"params"`

	// Points / Retx / Timeouts summarize the grid.
	Points   int   `json:"points"`
	Retx     int64 `json:"retx"`
	Timeouts int64 `json:"timeouts"`

	// PeakRSSBytes is the process's high-water resident set
	// (VmHWM from /proc/self/status; 0 where unavailable) and
	// HeapSysBytes the Go heap's footprint at manifest time. Together
	// they pin the memory cost of a run — the number the streaming
	// scale figure exists to keep flat.
	PeakRSSBytes int64  `json:"peak_rss_bytes,omitempty"`
	HeapSysBytes uint64 `json:"heap_sys_bytes,omitempty"`

	// Snapshot is the deterministically merged observability of every
	// simulation point (input-order merge; identical bytes at every
	// parallelism setting).
	Snapshot *obs.Snapshot `json:"snapshot,omitempty"`
}

// GitRev returns the VCS revision baked into the binary by the Go
// toolchain ("" outside a VCS build). A "+dirty" suffix marks
// uncommitted changes.
func GitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+dirty"
			}
		}
	}
	return rev + modified
}

// NewManifest assembles the manifest for one run: a figure's res, whose
// params are the options its Run resolved, or, with res nil, a run of o.
func NewManifest(tool string, res *Result, o Opts, started time.Time, wall time.Duration) *Manifest {
	m := &Manifest{
		Tool:         tool,
		GitRev:       GitRev(),
		Started:      started.UTC().Format(time.RFC3339),
		WallClockMS:  float64(wall) / float64(time.Millisecond),
		Params:       o,
		PeakRSSBytes: peakRSS(),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.HeapSysBytes = ms.HeapSys
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.GoVersion = bi.GoVersion
	}
	if res != nil {
		m.Params = res.opts
		m.Figure = res.ID
		m.Title = res.Title
		m.Points = res.Points
		m.Retx = res.Retx
		m.Timeouts = res.Timeouts
		m.Snapshot = res.Obs
	}
	if m.Params.Faults.Empty() {
		m.Params.Faults = nil // a plan that injects nothing is not recorded
	}
	return m
}

// peakRSS reads the process's high-water resident set from Linux's
// /proc/self/status (the VmHWM line, reported in kB). It returns 0 on
// platforms without procfs or when the line is missing — the manifest
// field is best-effort, not a portability promise.
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// Write emits the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Render formats a Result as aligned text columns: one row per X
// value, or one block per series when the X grids differ.
func (r *Result) Render() string {
	var b strings.Builder
	r.write(&b, false)
	return b.String()
}

// WriteTSV dumps the figure as tab-separated columns (one X column,
// one column per series), then its totals. Series with differing X
// grids (CDFs) are emitted as separate blocks. Writes go through a
// buffer whose first error sticks, so the Flush error covers every
// write.
func (r *Result) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.write(bw, true)
	fmt.Fprintf(bw, "# totals: points=%d retx=%d timeouts=%d\n", r.Points, r.Retx, r.Timeouts)
	return bw.Flush()
}

// write lays r out as Render's aligned columns or as WriteTSV's
// tab-separated ones, whose title, header and notes are "# " comments.
// Series sharing the first one's X grid (sweeps do; CDF curves have
// their own) make one table.
func (r *Result) write(w io.Writer, tsv bool) {
	com, head, name, unit, x, y := "", "%-14s", " %16s", "   (%s)\n", "%-14.4g", " %16.4g"
	if tsv {
		com, head, name, unit, x, y = "# ", "# %s", "\t%s", "\t(%s)\n", "%g", "\t%g"
	}
	fmt.Fprintf(w, com+"Figure %s: %s\n", r.ID, r.Title)
	table := !slices.ContainsFunc(r.Series, func(s Series) bool { return !slices.Equal(s.X, r.Series[0].X) })
	if table || !tsv {
		fmt.Fprintf(w, head, r.XLabel)
		for _, s := range r.Series {
			fmt.Fprintf(w, name, s.Name)
		}
		fmt.Fprintf(w, unit, r.YLabel)
	}
	if table {
		for i, xi := range r.Series[0].X {
			fmt.Fprintf(w, x, xi)
			for _, s := range r.Series {
				fmt.Fprintf(w, y, s.Y[i])
			}
			fmt.Fprintln(w)
		}
	} else {
		for _, s := range r.Series {
			if tsv {
				fmt.Fprintf(w, "# %s: %s vs %s\n", s.Name, r.XLabel, r.YLabel)
			} else {
				fmt.Fprintf(w, "-- %s --\n", s.Name)
			}
			for i := range s.X {
				fmt.Fprintf(w, x+y+"\n", s.X[i], s.Y[i])
			}
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, com+"note: %s\n", n)
	}
}
