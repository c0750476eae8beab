package hashdb

import "syscall"

// threadID identifies the OS thread the caller runs on.
func threadID() uint64 { return uint64(syscall.Gettid()) }
