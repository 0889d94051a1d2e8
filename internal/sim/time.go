// Package sim implements the discrete-event simulation engine that
// underlies the PASE network simulator: a virtual clock, an event
// calendar (binary heap keyed on time with deterministic tie-breaking),
// cancellable timers, and seeded random-number streams.
//
// The engine is single-threaded by design. Determinism is a first-class
// goal: given the same seed and the same sequence of Schedule calls, a
// run produces an identical event order, which the tests rely on.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute simulation timestamp in nanoseconds since the
// start of the run. The zero value is the beginning of simulated time.
type Time int64

// Duration is a span of simulated time in nanoseconds. It mirrors
// time.Duration so the usual constants read naturally.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Std converts a simulated duration to a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis reports the duration as a floating-point number of milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// DurationOf converts a time.Duration into a simulated Duration.
func DurationOf(d time.Duration) Duration { return Duration(d) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
}

func (d Duration) String() string { return time.Duration(d).String() }
