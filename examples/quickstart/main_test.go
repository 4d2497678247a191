package main

// Example runs the program and pins its whole report: the simulator is
// deterministic, so every printed virtual time is exact. A failure exits
// through log.Fatal, which fails the test binary.
func Example() {
	main()
	// Output:
	// datatype: hvector(256,1,2048,MPI_DOUBLE)
	//   blocks=256 payload=2048B extent=522248B
	// rank 0: column sent at t=10906ns (simulated)
	// rank 4: column received at t=20906ns (simulated)
	// verification: all column elements arrived intact
	// sender GPU: 1 kernel launch(es), 1 of them fused
}
