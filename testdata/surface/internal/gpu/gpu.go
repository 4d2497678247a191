// Package gpu owns the payload mode: it may import payload and select Lazy.
package gpu

import "surface/internal/payload"

func lazy(b *payload.Buffer) bool { return b.Lazy != nil }
