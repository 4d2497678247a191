// Package widget is a fixture for the exported-name scan in the root
// surface_test.go: the scan must report Orphan and TestOnly, and not Spin,
// which cmd/spin calls through the Spinner interface.
package widget

// Spinner is implemented by Wheel.
type Spinner interface{ Spin() int }

// Wheel spins.
type Wheel struct{}

// Spin is called only through Spinner.
func (Wheel) Spin() int { return 1 }

// Orphan is called by nothing.
func Orphan() int { return 2 }

// TestOnly is called only by widget_test.go.
func TestOnly() int { return 3 }
