// Package goroutinecapture is the violating fixture for the
// goroutinecapture rule: go-spawned closures writing captured variables
// without a synchronization edge.
package goroutinecapture

// UnsyncedWrite mutates a captured local with no sync edge in the closure:
// a write the spawner may read concurrently.
func UnsyncedWrite() int {
	total := 0
	go func() {
		total = 42 // want:goroutinecapture
	}()
	return total
}

// UnsyncedIncrement is the counter variant of the same race.
func UnsyncedIncrement(n int) int {
	count := 0
	for i := 0; i < n; i++ {
		go func(i int) {
			count++ // want:goroutinecapture
		}(i)
	}
	return count
}
