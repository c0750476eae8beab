package batcher

import (
	"testing"

	"shhc/internal/leaktest"
)

// TestMain fails the package if a batcher goroutine — a flight, or a chain
// of them — outlives the tests: every test closes its batcher, and Close
// waits for every flight.
func TestMain(m *testing.M) { leaktest.Main(m, "batcher.(*Batcher).") }
