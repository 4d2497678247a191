package mpi

// Unexpected reports how many arrived envelopes wait on r's unexpected
// queue for a receive.
func Unexpected(r *Rank) int { return len(r.unexpected) }
