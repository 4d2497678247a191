package conformance

import (
	"testing"

	"repro/internal/datatype"
)

// TestCanonicalPreservesFlattenSemantics is the canonicalization property
// test over the seeded DDT generator: for every generated type, the
// canonical stride-run form expands back to the committed block list
// element-for-element (pack order included), its aggregates match the
// layout's, and re-canonicalizing the expansion is a fixed point (same
// signature, same hash). This is the semantic guarantee that lets the
// layout cache key on canonical identity without changing any wire bytes.
func TestCanonicalPreservesFlattenSemantics(t *testing.T) {
	n := int64(400)
	if testing.Short() {
		n = 80
	}
	for seed := int64(0); seed < n; seed++ {
		typ := DecodeType(GenBytes(seed, 64))
		l := datatype.Commit(typ)
		c := l.CanonicalForm()
		if c.SizeBytes != l.SizeBytes || c.ExtentBytes != l.ExtentBytes {
			t.Fatalf("seed %d (%s): canon %d/%dB != layout %d/%dB",
				seed, typ.TypeName(), c.SizeBytes, c.ExtentBytes, l.SizeBytes, l.ExtentBytes)
		}
		exp := c.Expand()
		if len(exp) != len(l.Blocks) {
			t.Fatalf("seed %d (%s): canon expands to %d blocks, layout has %d",
				seed, typ.TypeName(), len(exp), len(l.Blocks))
		}
		for i, b := range l.Blocks {
			if exp[i] != b {
				t.Fatalf("seed %d (%s): expand[%d] = %+v, want %+v",
					seed, typ.TypeName(), i, exp[i], b)
			}
		}
		again := datatype.Canonicalize(exp, l.ExtentBytes)
		if !c.Equal(again) || c.Hash() != again.Hash() {
			t.Fatalf("seed %d (%s): not a fixed point:\n %s\n %s",
				seed, typ.TypeName(), c.Signature(), again.Signature())
		}
	}
}

// TestEquivalentSpellingsHashIdentically rebuilds each generated layout as
// a literal hindexed-of-bytes spelling of its own block list (a maximally
// different constructor tree) and asserts the two commit to identical
// canonical signatures and hashes — the family-collapse property TEMPI's
// cache reuse rests on.
func TestEquivalentSpellingsHashIdentically(t *testing.T) {
	n := int64(200)
	if testing.Short() {
		n = 40
	}
	for seed := int64(0); seed < n; seed++ {
		typ := DecodeType(GenBytes(seed, 64))
		l := datatype.Commit(typ)
		lens := make([]int, len(l.Blocks))
		displs := make([]int64, len(l.Blocks))
		for i, b := range l.Blocks {
			lens[i] = int(b.Len)
			displs[i] = b.Offset
		}
		respelled := datatype.Resized(
			datatype.Hindexed(lens, displs, datatype.Byte), l.ExtentBytes)
		rl := datatype.Commit(respelled)
		if l.Canonical() != rl.Canonical() {
			t.Fatalf("seed %d (%s): respelling changed identity:\n %s\n %s",
				seed, typ.TypeName(), l.Canonical(), rl.Canonical())
		}
		if l.CanonicalForm().Hash() != rl.CanonicalForm().Hash() {
			t.Fatalf("seed %d (%s): hashes differ", seed, typ.TypeName())
		}
		if !datatype.Equivalent(typ, respelled) {
			t.Fatalf("seed %d (%s): Equivalent() disagrees with signature equality",
				seed, typ.TypeName())
		}
	}
}
