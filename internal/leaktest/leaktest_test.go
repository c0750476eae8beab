package leaktest

import (
	"strings"
	"testing"
)

//go:noinline
func parkedForLeaktest(entered chan<- struct{}, release <-chan struct{}) {
	close(entered)
	<-release
}

func TestSettleFindsAParkedGoroutine(t *testing.T) {
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		parkedForLeaktest(entered, release)
	}()
	<-entered
	if got := settle([]string{"parkedForLeaktest"}); !strings.Contains(got, "parkedForLeaktest") {
		t.Fatalf("settle did not report the parked goroutine:\n%s", got)
	}
	close(release)
	<-done
	if got := settle([]string{"parkedForLeaktest"}); got != "" {
		t.Fatalf("settle reports a goroutine that has exited:\n%s", got)
	}
}
