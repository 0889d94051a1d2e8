// Package cliutil holds the small pieces shared by the command-line
// front ends: a throttled stderr progress meter, pprof profile setup,
// buffered output files and flag help built from the registries.
// Nothing here touches the simulation itself.
package cliutil

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// Progress is a concurrency-safe live progress meter: simulation
// points done, completion rate and ETA, redrawn in place on stderr at
// most ~10×/s so it never becomes the bottleneck. A nil or disabled
// meter is a no-op, so callers can wire it unconditionally.
type Progress struct {
	mu      sync.Mutex
	start   time.Time
	last    time.Time
	label   string
	enabled bool
	drawn   bool
}

// NewProgress starts a meter for one run. Pass enabled=false to get a
// no-op meter (e.g. when stderr is not a terminal or -quiet is set).
func NewProgress(label string, enabled bool) *Progress {
	return &Progress{label: label, start: time.Now(), enabled: enabled}
}

// Update is shaped to be used directly as a FigureOpts.Progress /
// SimulateSeeds progress callback. Safe for concurrent use.
func (p *Progress) Update(done, total int) {
	if p == nil || !p.enabled || total <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if done < total && now.Sub(p.last) < 100*time.Millisecond {
		return
	}
	p.last = now
	p.drawn = true
	elapsed := now.Sub(p.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed
	}
	eta := "?"
	if rate > 0 {
		eta = time.Duration(float64(total-done) / rate * float64(time.Second)).Round(time.Second).String()
	}
	fmt.Fprintf(os.Stderr, "\r%s: %d/%d points, %.1f/s, eta %s   ", p.label, done, total, rate, eta)
}

// Done clears the meter line. Call once when the run finishes.
func (p *Progress) Done() {
	if p == nil || !p.enabled {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drawn {
		fmt.Fprint(os.Stderr, "\r\x1b[2K")
		p.drawn = false
	}
}

// StartCPUProfile begins writing a CPU profile to path ("" = off) and
// returns the function that stops it and closes the file.
func StartCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteMemProfile dumps a heap profile to path ("" = off), after a GC
// so the profile reflects live memory rather than garbage.
func WriteMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// CreateFile creates path behind a buffer. finish flushes the buffer,
// closes the file and returns the first error of the two.
func CreateFile(path string) (w io.Writer, finish func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	return bw, func() error {
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// WriteFile creates path and streams fn into it through a buffer.
func WriteFile(path string, fn func(w io.Writer) error) error {
	w, finish, err := CreateFile(path)
	if err != nil {
		return err
	}
	if err := fn(w); err != nil {
		finish()
		return err
	}
	return finish()
}

// Join lists registry names comma-separated for a flag's help text,
// so the help cannot drift from what the code accepts.
func Join[S ~string](names []S) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = string(n)
	}
	return strings.Join(out, ", ")
}
