package main

// Example runs the program and pins its whole report: the simulator is
// deterministic, so every printed virtual time is exact. A failure exits
// through log.Fatal, which fails the test binary.
func Example() {
	main()
	// Output:
	// 2D halo exchange on 4 GPUs (one node), 512x512 doubles per rank
	//
	// GPU-Sync         avg exchange =     18.9 us   speedup = 1.00x
	// Proposed-Tuned   avg exchange =     11.8 us   speedup = 1.60x
	//
	// halos verified against neighbor grids on every run
}
