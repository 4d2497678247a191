package payload

// Concat returns a fresh Content holding a followed by b.
func Concat(a, b *Content) *Content {
	out := New(a.n + b.n)
	out.CopyFrom(0, a, 0, a.n)
	out.CopyFrom(a.n, b, 0, b.n)
	return out
}

// mergeable reports whether fill spans a and b, b right after a with
// nothing between, break the canonical form: b continues a (they are one
// fill span), or b repeats a's seed and length (they are one vector).
// Literal spans never merge, so a content's span count does not depend on
// how its literals are shared.
func mergeable(a, b span) bool {
	return a.kind == srcFill && b.kind == srcFill && a.seed == b.seed && (a.n == b.n || continues(a, b))
}
