// Package workload may import payload, for its fill, but not select Lazy.
package workload

import "surface/internal/payload"

func lazy(b *payload.Buffer) bool { return b.Lazy != nil }
