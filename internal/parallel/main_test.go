package parallel

import (
	"testing"

	"shhc/internal/leaktest"
)

// TestMain fails the package if a worker outlives its Do: Do waits for
// every goroutine it starts.
func TestMain(m *testing.M) { leaktest.Main(m, "parallel.Do") }
