// Package ckpt may neither import payload nor select Lazy or IsLazy.
package ckpt

import "surface/internal/payload"

func lazy(b *payload.Buffer) bool { return b.IsLazy() && b.Lazy != nil }
