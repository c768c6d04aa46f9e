package main

// Example pins the program's stdout: the run is a deterministic virtual-time
// simulation, so every line must repeat byte for byte.
func Example() {
	main()
	// Output:
	// explored 5 step sizes over 20 unrolled rounds
	// best model: y = 2.064*x + 0.105, loss 0.3579 (true: 2.5x - 1)
	// completion time: 382.37 virtual seconds
	// diverging step sizes were cut after their first exploding round;
	// their remaining rounds forwarded an empty marker at zero cost
}
