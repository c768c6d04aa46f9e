package main

// Example pins the program's stdout: the run is a deterministic virtual-time
// simulation, so every line must repeat byte for byte.
func Example() {
	main()
	// Output:
	// masking settings explored: 9
	// events detected:           1759
	// completion time:           24.59 virtual seconds
	// branch datasets discarded: 1
}
