package batcher

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package if a batcher goroutine — a flight, or a chain
// of them — outlives the tests: every test closes its batcher, and Close
// waits for every flight, so after a settle loop none may be left.
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := batcherGoroutines(); code == 0 && leaked != "" {
		fmt.Fprintf(os.Stderr, "batcher goroutines outlived Close:\n%s\n", leaked)
		code = 1
	}
	os.Exit(code)
}

// batcherGoroutines returns the stacks of goroutines still inside a Batcher
// method after giving them two seconds to finish, or "" if there are none.
func batcherGoroutines() string {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var leaked []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "batcher.(*Batcher).") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
	}
}
