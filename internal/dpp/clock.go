package dpp

import "time"

// Clock abstracts time for the scheduling layer: stall accounting on
// sessions and the AutoScaler's decision ticks. Production code runs on
// the wall clock; tests inject a manual-advance clock
// (internal/testutil.Clock satisfies this interface) so controller
// decisions are reproducible without time.Sleep.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the time once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// SystemClock is the wall clock, the default when no Clock is injected.
type SystemClock struct{}

func (SystemClock) Now() time.Time                         { return time.Now() }
func (SystemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
