// Package pool mirrors the wire package's pooled-buffer surface: an
// acquire marked //shhc:returns-buf, a release marked //shhc:takes-buf,
// and a ReadFrame-shaped helper that acquires internally and hands
// ownership to its caller through the marked return.
package pool

import (
	"errors"
	"sync"
)

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

//shhc:returns-buf
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

//shhc:takes-buf bp
//lint:ignore bufown the nil early-return is the release for empty-handed callers, mirroring wire.PutBuf.
func PutBuf(bp *[]byte) {
	if bp == nil {
		return
	}
	bufPool.Put(bp)
}

// ReadFrame decodes src into a pooled buffer the caller owns on
// success; on error no buffer is retained.
//
//shhc:returns-buf
func ReadFrame(src []byte) (*[]byte, error) {
	if len(src) == 0 {
		return nil, errors.New("pool: empty frame")
	}
	bp := GetBuf()
	*bp = append((*bp)[:0], src...)
	return bp, nil
}

// Mux mirrors the wire.MuxWriter surface: Enqueue is a takes-buf METHOD —
// the frame's payload buffer transfers to the mux at the call and the
// flush goroutine releases it after the socket write.
type Mux struct{}

// Enqueue takes ownership of bp.
//
//shhc:takes-buf bp
func (m *Mux) Enqueue(frame []byte, bp *[]byte) error {
	PutBuf(bp)
	return nil
}

// Scratch mirrors the pooled scratch records (webfront.planScratch,
// core.batchScratch): a pooled *struct is owned exactly like a pooled
// *[]byte. PutScratch drops an oversized record's arrays but always returns
// the record itself, so every path through it is a release.
type Scratch struct{ Pairs []int }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

//shhc:returns-buf
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

//shhc:takes-buf sc
func PutScratch(sc *Scratch) {
	if cap(sc.Pairs) > 1<<16 {
		*sc = Scratch{}
	}
	scratchPool.Put(sc)
}

var pairPool = sync.Pool{New: func() any { return new([]int) }}

// DecodePairs mirrors rpc's decodeCorePairs: a pooled *[]T that is non-nil
// exactly when the error is nil.
//
//shhc:returns-buf
func DecodePairs(src []byte) (*[]int, error) {
	if len(src) == 0 {
		return nil, errors.New("pool: empty batch")
	}
	pp := pairPool.Get().(*[]int)
	*pp = append((*pp)[:0], len(src))
	return pp, nil
}

//shhc:takes-buf pp
func PutPairs(pp *[]int) { pairPool.Put(pp) }
