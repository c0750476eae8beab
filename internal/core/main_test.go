package core

import (
	"testing"

	"shhc/internal/leaktest"
)

// TestMain fails the package if a destager goroutine, a parallel.Do worker
// of one of its waves, or any goroutine inside a Node method outlives the
// tests: every test that builds a write-back node closes it, and Close waits
// for the destager; a lookup runs in its caller, so none can outlive its call.
func TestMain(m *testing.M) {
	leaktest.Main(m, "core.(*destager).", "parallel.Do", "core.(*Node).")
}
