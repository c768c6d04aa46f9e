//go:build !race

package plan

// raceDetector reports whether the test binary was built with -race.
const raceDetector = false
