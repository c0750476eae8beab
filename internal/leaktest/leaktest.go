// Package leaktest is the goroutine-leak scan a package's TestMain runs
// after its tests.
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the package's tests and then fails it if a goroutine is still
// inside a function whose name contains one of frames: the tests stop
// everything they start, so after a settle loop none may be left. Call it
// from TestMain; it does not return.
func Main(m *testing.M, frames ...string) {
	code := m.Run()
	if leaked := settle(frames); code == 0 && leaked != "" {
		fmt.Fprintf(os.Stderr, "goroutines in %s outlived the tests:\n%s\n", strings.Join(frames, ", "), leaked)
		code = 1
	}
	os.Exit(code)
}

// settle returns the stacks of the goroutines still inside one of frames
// after giving them two seconds to finish, or "" if there are none.
func settle(frames []string) string {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var leaked []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			for _, f := range frames {
				if strings.Contains(g, f) {
					leaked = append(leaked, g)
					break
				}
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
	}
}
