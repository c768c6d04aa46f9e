package main

// Example pins the program's stdout: the run is a deterministic virtual-time
// simulation, so every line must repeat byte for byte.
func Example() {
	main()
	// Output:
	// kept 9980 of 10000 rows
	// completion time:    6.05 virtual seconds
	// branches pruned:    2 (never executed)
	// choose evaluations: 1 of 3 branches
}
