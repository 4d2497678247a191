package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/payload"
)

func TestAllFourWorkloadsPresent(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("want 4 workloads, got %d", len(all))
	}
	want := []string{"specfem3D_oc", "specfem3D_cm", "MILC", "NAS_MG"}
	for i, w := range all {
		if w.Name != want[i] {
			t.Errorf("workload %d = %s, want %s", i, w.Name, want[i])
		}
		if len(w.Dims) == 0 {
			t.Errorf("%s has no dimension sweep", w.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if w, ok := ByName("MILC"); !ok || w.Name != "MILC" {
		t.Fatal("ByName(MILC) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName should miss unknown names")
	}
}

func TestSparseWorkloadsHaveThousandsOfBlocks(t *testing.T) {
	// Paper Section V-A: sparse = "more than thousands of small blocks".
	for _, w := range []Workload{Specfem3DOC(), Specfem3DCM()} {
		if w.Kind != Sparse {
			t.Errorf("%s should be sparse", w.Name)
		}
		l := w.Layout(32)
		if l.NumBlocks() < 1000 {
			t.Errorf("%s dim=32 has only %d blocks", w.Name, l.NumBlocks())
		}
		avg := l.SizeBytes / int64(l.NumBlocks())
		if avg > 16 {
			t.Errorf("%s avg block %dB too fat for sparse", w.Name, avg)
		}
	}
}

func TestDenseWorkloadsHaveFatterBlocks(t *testing.T) {
	// Paper: dense = "less than thousand of blocks".
	for _, w := range []Workload{MILC(), NASMG()} {
		if w.Kind != Dense {
			t.Errorf("%s should be dense", w.Name)
		}
		l := w.Layout(16)
		if l.NumBlocks() >= 1000 {
			t.Errorf("%s dim=16 has %d blocks, not dense", w.Name, l.NumBlocks())
		}
		avg := l.SizeBytes / int64(l.NumBlocks())
		if avg < 64 {
			t.Errorf("%s avg block %dB too thin for dense", w.Name, avg)
		}
	}
}

func TestLayoutsDeterministic(t *testing.T) {
	for _, w := range All() {
		a := w.Layout(16)
		b := w.Layout(16)
		if a.NumBlocks() != b.NumBlocks() || a.SizeBytes != b.SizeBytes {
			t.Errorf("%s layout not deterministic", w.Name)
		}
		for i := range a.Blocks {
			if a.Blocks[i] != b.Blocks[i] {
				t.Errorf("%s block %d differs between builds", w.Name, i)
				break
			}
		}
	}
}

func TestMessageSizeGrowsWithDim(t *testing.T) {
	for _, w := range All() {
		prev := int64(0)
		for _, d := range w.Dims {
			l := w.Layout(d)
			if l.SizeBytes <= prev {
				t.Errorf("%s: size did not grow at dim %d", w.Name, d)
			}
			prev = l.SizeBytes
		}
	}
}

func TestMILCStructure(t *testing.T) {
	l := MILC().Layout(8)
	if l.NumBlocks() != 64 {
		t.Fatalf("MILC dim=8 blocks = %d, want 64", l.NumBlocks())
	}
	if l.SizeBytes != 64*144 {
		t.Fatalf("MILC dim=8 payload = %d, want %d", l.SizeBytes, 64*144)
	}
}

func TestNASMGStructure(t *testing.T) {
	l := NASMG().Layout(32)
	if l.NumBlocks() != 32 {
		t.Fatalf("NAS_MG dim=32 blocks = %d", l.NumBlocks())
	}
	if l.MaxBlockBytes != 32*8 {
		t.Fatalf("NAS_MG dim=32 block size = %d, want 256", l.MaxBlockBytes)
	}
}

func TestSpecfemCMIsStructOfThreeFields(t *testing.T) {
	w := Specfem3DCM()
	l := w.Layout(8)
	// Three fields of dim^2 blocks each (some may coalesce).
	if l.NumBlocks() < 150 || l.NumBlocks() > 3*64 {
		t.Fatalf("specfem3D_cm dim=8 blocks = %d, want ~192", l.NumBlocks())
	}
	if !strings.HasPrefix(l.Name, "struct") {
		t.Fatalf("layout name %q should be a struct", l.Name)
	}
}

func TestFillPatternDeterministicAndVaried(t *testing.T) {
	a := make([]byte, 1024)
	b := make([]byte, 1024)
	FillPattern(a, 7)
	FillPattern(b, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fill not deterministic")
		}
	}
	FillPattern(b, 8)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Fatalf("different seeds produced %d/%d identical bytes", same, len(a))
	}
}

// TestFillPatternIsTheLazyStream checks that FillPattern writes the bytes
// a lazy content filled from the same seed holds, at an odd length.
func TestFillPatternIsTheLazyStream(t *testing.T) {
	const n = 1027
	got := make([]byte, n)
	FillPattern(got, 42)
	c := payload.New(n)
	c.Fill(42)
	want := make([]byte, n)
	c.ReadAt(want, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("FillPattern differs from the lazy fill of the same seed")
	}
}

func TestVerifyBlocksCatchesCorruption(t *testing.T) {
	w := MILC()
	l := w.Layout(4)
	src := make([]byte, l.ExtentBytes)
	dst := make([]byte, l.ExtentBytes)
	FillPattern(src, 1)
	copy(dst, src)
	if err := VerifyBlocks(l, 1, src, dst); err != nil {
		t.Fatalf("identical buffers should verify: %v", err)
	}
	b := l.Blocks[len(l.Blocks)/2]
	dst[b.Offset+1] ^= 0xFF
	want := fmt.Sprintf("workload: mismatch at byte %d of block %+v", b.Offset+1, b)
	if err := VerifyBlocks(l, 1, src, dst); err == nil || err.Error() != want {
		t.Fatalf("corruption reported as %v, want %q", err, want)
	}
	// Corruption in a hole must NOT be detected (holes are dont-care).
	copy(dst, src)
	holeFound := false
	for i := 0; i < len(l.Blocks)-1; i++ {
		gap := l.Blocks[i+1].Offset - (l.Blocks[i].Offset + l.Blocks[i].Len)
		if gap > 0 {
			dst[l.Blocks[i].Offset+l.Blocks[i].Len] ^= 0xFF
			holeFound = true
			break
		}
	}
	if holeFound {
		if err := VerifyBlocks(l, 1, src, dst); err != nil {
			t.Fatalf("hole corruption flagged: %v", err)
		}
	}
}

// Property: every workload at every swept dim yields a layout whose blocks
// are in bounds and whose density matches its kind at the margins.
func TestPropertyLayoutsWellFormed(t *testing.T) {
	f := func(wIdx, dIdx uint8) bool {
		all := All()
		w := all[int(wIdx)%len(all)]
		d := w.Dims[int(dIdx)%len(w.Dims)]
		l := w.Layout(d)
		if l.SizeBytes <= 0 || l.ExtentBytes < l.SizeBytes {
			return false
		}
		for _, b := range l.Blocks {
			if b.Offset < 0 || b.Offset+b.Len > l.ExtentBytes || b.Len <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
