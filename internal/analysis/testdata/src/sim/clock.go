// Package sim is a wallclock-rule fixture: it stands in for a simulator
// package where only virtual time is allowed.
package sim

import (
	"time"
)

// Tick exercises the forbidden wall-clock calls.
func Tick() float64 {
	start := time.Now()                // want:wallclock
	time.Sleep(time.Millisecond)       // want:wallclock
	<-time.After(time.Millisecond)     // want:wallclock
	return time.Since(start).Seconds() // want:wallclock
}

// Durations shows that the time package itself stays usable: constants,
// types and arithmetic are not wall-clock reads.
func Durations(d time.Duration) time.Duration {
	return d + 2*time.Second
}

// Allowed demonstrates the escape comment, in both positions.
func Allowed() time.Time {
	//lint:allow wallclock -- boot stamp for log prefixes only
	t := time.Now()
	t2 := time.Now() //lint:allow wallclock
	if t2.After(t) {
		return t2
	}
	return t
}
