// Negative cases: correct ownership flows that must stay silent.
package a

import "bufowntest/pool"

func releaseOnAllPaths(cond bool) {
	bp := pool.GetBuf()
	if cond {
		sink(*bp)
	}
	pool.PutBuf(bp)
}

func deferredRelease() {
	bp := pool.GetBuf()
	defer pool.PutBuf(bp)
	sink(*bp)
}

// frameOwnership is the ReadFrame happy path: ownership transfers in
// on success only (the error branch holds nothing), and the deferred
// release settles it.
func frameOwnership(src []byte) error {
	bp, err := pool.ReadFrame(src)
	if err != nil {
		return err
	}
	defer pool.PutBuf(bp)
	sink(*bp)
	return nil
}

// handOff acquires and releases in one expression: a returns-buf result
// passed directly to an owning (takes-buf) position never leaks.
func handOff() {
	pool.PutBuf(pool.GetBuf())
}

// forwardFrame re-exports ownership: a returns-buf function may hand the
// buffer to its own caller through the marked return.
//
//shhc:returns-buf
func forwardFrame(src []byte) (*[]byte, error) {
	return pool.ReadFrame(src)
}

// borrowDoesNotRelease passes the buffer to a plain function: that is a
// borrow, not a transfer, so the later release is not a double release.
func borrowDoesNotRelease() {
	bp := pool.GetBuf()
	sink(*bp)
	sink(*bp)
	pool.PutBuf(bp)
}

// muxHandOff is the multiplexed write path: enqueueing a frame into the
// mux writer transfers the payload buffer's ownership through the
// takes-buf method parameter — the flusher releases it after the socket
// write, so the enqueuer must NOT release and must not be flagged for
// not releasing.
func muxHandOff(m *pool.Mux) error {
	bp := pool.GetBuf()
	return m.Enqueue(*bp, bp)
}

// scratchDeferred is the handler shape: take the scratch, defer its return,
// use views of it (never the pointer itself) inside closures.
func scratchDeferred(n int) int {
	sc := pool.GetScratch()
	defer pool.PutScratch(sc)
	pairs := sc.Pairs[:0]
	sum := func() int { return len(pairs) + n }
	return sum()
}

// pairsReleasedBeforeBranch mirrors the rpc batch arm: the decoded pairs go
// back as soon as the backend call returns, before the error is examined.
func pairsReleasedBeforeBranch(src []byte, call func([]int) error) error {
	pp, err := pool.DecodePairs(src)
	if err != nil {
		return err
	}
	err = call(*pp)
	pool.PutPairs(pp)
	if err != nil {
		return err
	}
	return nil
}

// refuseInLoop is the rpc read loop's refusal arm: a buffer acquired, handed
// off and abandoned by `continue` inside one branch does not exist on the
// path that falls out of the if, so neither the end of the iteration nor a
// later continue owns it.
func refuseInLoop(srcs [][]byte, m *pool.Mux) {
	for _, src := range srcs {
		if len(src) == 0 {
			bp := pool.GetBuf()
			m.Enqueue(*bp, bp)
			continue
		}
		if len(src) == 1 {
			continue
		}
		sink(src)
	}
}
