package main

// Example runs the program and pins its whole report: the simulator is
// deterministic, so every printed virtual time is exact. A failure exits
// through log.Fatal, which fails the test binary.
func Example() {
	main()
	// Output:
	// MILC su3 zdown, dim=8 (64 blocks, 9.0 KB/message), single small dense message:
	//   GPU-Sync             18.9 us
	//   GPU-Async            19.1 us
	//   CPU-GPU-Hybrid        7.9 us
	//   Proposed-Tuned       20.0 us
	//   winner: CPU-GPU-Hybrid
	//
	// MILC su3 zdown, dim=8 (64 blocks, 9.0 KB/message), bulk of 16 small dense messages:
	//   GPU-Sync            257.8 us
	//   GPU-Async           261.3 us
	//   CPU-GPU-Hybrid       82.7 us
	//   Proposed-Tuned       44.1 us
	//   winner: Proposed-Tuned
	//
	// MILC su3 zdown, dim=24 (576 blocks, 81.0 KB/message), bulk of 16 larger dense messages:
	//   GPU-Sync            272.1 us
	//   GPU-Async           273.8 us
	//   CPU-GPU-Hybrid      588.5 us
	//   Proposed-Tuned      114.7 us
	//   winner: Proposed-Tuned
}
