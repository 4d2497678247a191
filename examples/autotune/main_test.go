package main

// Example runs the program and pins its whole report: the simulator is
// deterministic, so every printed virtual time is exact. A failure exits
// through log.Fatal, which fails the test binary.
func Example() {
	main()
	// Output:
	// specfem3D_cm dim=32 (3072 blocks, 23.8 KB/message), 16 buffers, 6 rounds
	//
	//   fixed 16KB (bad: under-fused)  final-round latency    233.1 us
	//   fixed 512KB (hand-tuned)       final-round latency     67.2 us
	//   model + online tuner (auto)    final-round latency     69.1 us
	//
	// the auto-tuned scheme needs no per-system threshold search (paper Fig. 8)
}
