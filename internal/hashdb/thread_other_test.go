//go:build !linux

package hashdb

import "runtime"

// threadID identifies the caller's goroutine, where no thread id is at hand:
// a goroutine locked to its thread is the only one that runs there, so the
// two tell the same goroutines apart.
func threadID() uint64 {
	var buf [32]byte
	runtime.Stack(buf[:], false)
	id := uint64(0)
	for _, c := range buf[len("goroutine "):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
