package core

import (
	"testing"

	"shhc/internal/leaktest"
)

// TestMain fails the package if a destager goroutine, or a parallel.Do
// worker of one of its waves, outlives the tests: every test that builds a
// write-back node closes it, and Close waits for the destager.
func TestMain(m *testing.M) { leaktest.Main(m, "core.(*destager).", "parallel.Do") }
