// Package pool is the marked acquire/release pair the escape analysis
// keys on.
package pool

import "sync"

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

//shhc:returns-buf
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

//shhc:takes-buf bp
func PutBuf(bp *[]byte) {
	bufPool.Put(bp)
}

// Scratch is a pooled scratch record: a pooled *struct escapes like a
// pooled *[]byte.
type Scratch struct{ Pairs []int }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

//shhc:returns-buf
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

//shhc:takes-buf sc
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }
