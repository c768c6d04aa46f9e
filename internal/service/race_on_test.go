//go:build race

package service

// raceDetector reports whether the test binary was built with -race.
const raceDetector = true
