package main

// Example pins the program's stdout: the run is a deterministic virtual-time
// simulation, so every line must repeat byte for byte.
func Example() {
	main()
	// Output:
	// explored 4 + 4 configurations (instead of 16 exhaustive)
	// best model: lr=0.01, validation accuracy 93.0%
	// completion time: 30.56 virtual seconds
}
