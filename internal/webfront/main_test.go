package webfront

import (
	"testing"

	"shhc/internal/leaktest"
)

// TestMain fails the package if a test leaves a front, its aggregator, or
// an rpc client or server it started running.
func TestMain(m *testing.M) {
	leaktest.Main(m, "webfront.(*Server).", "batcher.(*Batcher).", "rpc.(*Server).", "rpc.(*clientConn).", "wire.(*MuxWriter).")
}
