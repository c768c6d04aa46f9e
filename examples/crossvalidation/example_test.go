package main

// Example pins the program's stdout: the run is a deterministic virtual-time
// simulation, so every line must repeat byte for byte.
func Example() {
	main()
	// Output:
	// 5-fold cross validation in one MDF job
	// best fold: 4, model y = 3.005*x + 1.949 (true: 3x + 2)
	// completion time: 3.66 virtual seconds
	// the shared input was materialised once and read by 5 branches
}
