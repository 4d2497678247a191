package conformance

import (
	"testing"

	"repro/internal/datatype"
)

// scenarioSeeds reports how many generated scenarios the differential suite
// sweeps: at least 50 in the full run (the acceptance floor), a handful
// under -short.
func scenarioSeeds(t *testing.T) int {
	if testing.Short() {
		return 12
	}
	return 60
}

// TestSeedInputsDifferential runs the committed known-tricky decoder inputs
// (the same corpus the fuzz target starts from) through the full
// differential matrix.
func TestSeedInputsDifferential(t *testing.T) {
	for i, in := range SeedInputs {
		sc := DecodeScenario(in)
		if err := Differential(sc); err != nil {
			t.Errorf("seed input %d (% x): %v\n  send=%s recv=%s count=%d",
				i, in, err, sc.SendType.TypeName(), sc.RecvType.TypeName(), sc.Count)
		}
	}
}

// TestGeneratedDifferential sweeps generated scenarios over every scheme,
// asserting byte-identical receive buffers against the sequential model
// and against each other.
func TestGeneratedDifferential(t *testing.T) {
	n := scenarioSeeds(t)
	for seed := int64(0); seed < int64(n); seed++ {
		sc := GenScenario(seed)
		if err := Differential(sc); err != nil {
			t.Errorf("seed %d: %v\n  send=%s recv=%s count=%d rdv=%v eager=%d ipc-off=%v intra=%v pipe=%v",
				seed, err, sc.SendType.TypeName(), sc.RecvType.TypeName(), sc.Count,
				sc.Rendezvous, sc.EagerLimit, sc.DisableIPC, sc.IntraNode, sc.Pipeline)
		}
	}
}

// TestDeterminism replays scenarios under every scheme and asserts
// bit-identical clocks, buffers, and trace totals — the same-seed ⇒
// same-timings half of DESIGN §5.
func TestDeterminism(t *testing.T) {
	perScheme := 3
	if testing.Short() {
		perScheme = 1
	}
	for i, name := range SchemeNames() {
		for j := 0; j < perScheme; j++ {
			sc := GenScenario(int64(1000 + i*perScheme + j))
			if err := CheckDeterminism(sc, name); err != nil {
				t.Errorf("scheme %s seed %d: %v", name, 1000+i*perScheme+j, err)
			}
		}
	}
}

// TestDecoderBounded asserts the generator's own contract: every decoded
// type commits cleanly, respects the extent budget, and zero-payload types
// produce zero blocks (the subarray empty-slab regression).
func TestDecoderBounded(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		l := datatype.Commit(DecodeType(GenBytes(seed, 64)))
		// The budget bounds extent; Resized can pack payload up to 2x
		// denser than extent per nesting level, so size gets 2^(depth-1)
		// slack over the extent budget.
		const sizeBound = extentBudget << (maxDepth - 1)
		if l.SizeBytes < 0 || l.SizeBytes > sizeBound {
			t.Fatalf("seed %d: size %d outside [0, %d]", seed, l.SizeBytes, int64(sizeBound))
		}
		if l.SizeBytes == 0 && l.NumBlocks() != 0 {
			t.Fatalf("seed %d: zero-size layout has %d blocks", seed, l.NumBlocks())
		}
		var sum int64
		for _, b := range l.Blocks {
			if b.Offset < 0 || b.Len <= 0 {
				t.Fatalf("seed %d: bad block {%d %d}", seed, b.Offset, b.Len)
			}
			sum += b.Len
		}
		if sum != l.SizeBytes {
			t.Fatalf("seed %d: block lens sum %d != size %d", seed, sum, l.SizeBytes)
		}
	}
}

// TestEmptySlabSubarray pins the datatype bug this package first caught:
// a subarray with a zero outer subsize used to emit phantom blocks and
// panic Commit with "flatten lost bytes".
func TestEmptySlabSubarray(t *testing.T) {
	l := datatype.Commit(datatype.Subarray(
		[]int{4, 4}, []int{0, 2}, []int{0, 0}, datatype.Float32))
	if l.SizeBytes != 0 || l.NumBlocks() != 0 {
		t.Fatalf("empty slab: want 0 bytes 0 blocks, got %d bytes %d blocks",
			l.SizeBytes, l.NumBlocks())
	}
}

// TestReproDeadlock pins the decoder input "11zz000000000", a scenario
// that once deadlocked a scheme: every scheme must deliver it byte-exact
// to the sequential model and agree with the others. The same input is in
// the FuzzSchemesAgree corpus; this test keeps it in every plain run.
func TestReproDeadlock(t *testing.T) {
	sc := DecodeScenario([]byte("11zz000000000"))
	if err := Differential(sc); err != nil {
		t.Fatalf("%v (send=%s recv=%s count=%d)",
			err, sc.SendType.TypeName(), sc.RecvType.TypeName(), sc.Count)
	}
}

// FuzzSchemesAgree feeds arbitrary bytes through the scenario decoder and
// asserts the full differential property plus determinism for one scheme
// per input. The corpus seeds are SeedInputs; go-fuzz grows it from there.
func FuzzSchemesAgree(f *testing.F) {
	for _, in := range SeedInputs {
		f.Add(in)
	}
	names := SchemeNames()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("bounded decoder input")
		}
		sc := DecodeScenario(data)
		if err := Differential(sc); err != nil {
			t.Fatalf("%v (send=%s recv=%s count=%d)",
				err, sc.SendType.TypeName(), sc.RecvType.TypeName(), sc.Count)
		}
		// Rotate the determinism check over schemes by input shape so the
		// fuzz run spreads coverage instead of re-checking one scheme.
		pick := 0
		for _, b := range data {
			pick += int(b)
		}
		if err := CheckDeterminism(sc, names[pick%len(names)]); err != nil {
			t.Fatal(err)
		}
	})
}
