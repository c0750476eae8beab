package rpc

import (
	"testing"

	"shhc/internal/leaktest"
)

// TestMain fails the package if a test leaves a server, client or mux
// goroutine running.
func TestMain(m *testing.M) {
	leaktest.Main(m, "rpc.(*Server).", "rpc.(*clientConn).", "wire.(*MuxWriter).")
}
