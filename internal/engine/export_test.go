package engine

// AdoptedAhead reports how many stages the run executed from a result
// computed ahead of their pick; the external tests ask it whether the pool
// was reached.
func (r *Run) AdoptedAhead() int { return r.adoptedAhead }

// OfferedAhead reports whether any stage of the run, which must not have
// ended, has passed the gate so far: the state other goroutines compute into
// is allocated when the first one does.
func (r *Run) OfferedAhead() bool { return r.ahead != nil }

// RaceDetector reports whether the test binary was built with -race.
const RaceDetector = raceDetector
