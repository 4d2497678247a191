package rma

// FreeOps reports how many settled ops f holds for reuse.
func FreeOps(f *Fabric) int { return len(f.free) }
