package main

// Example runs the program and pins its whole report: the simulator is
// deterministic, so every printed virtual time is exact. A failure exits
// through log.Fatal, which fails the test binary.
func Example() {
	main()
	// Output:
	// specfem3D_cm dim=32: 3072 blocks of avg 7 bytes, 23.8 KB/message, 16 messages
	//
	// threshold    latency_us   sender_launches
	// 8KB          243.8        16
	// 64KB         120.8        6
	// 512KB        70.9         1
	// 16MB         70.9         1
	//
	// low thresholds launch many small fused kernels (under-fused);
	// a threshold that holds the whole bulk fuses every pack into one kernel
	// at the Waitall flush, so raising it further changes nothing here.
}
