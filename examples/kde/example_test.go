package main

// Example pins the program's stdout: the run is a deterministic virtual-time
// simulation, so every line must repeat byte for byte.
func Example() {
	main()
	// Output:
	// explored 9 kernel/bandwidth configurations in one MDF job
	// completion time:   107.16 virtual seconds
	// datasets discarded early: 10
	// sequential jobs:   170.72 virtual seconds (9 jobs, 59% slower)
}
