// Positive cases: each want line must fire.
package a

import (
	"errors"

	"bufowntest/pool"
)

func sink([]byte) {}

var errFailed = errors.New("failed")

func leakOnEarlyReturn(cond bool) {
	bp := pool.GetBuf() // want `pooled buffer "bp" is not released on`
	if cond {
		return
	}
	pool.PutBuf(bp)
}

func doubleRelease() {
	bp := pool.GetBuf()
	pool.PutBuf(bp)
	pool.PutBuf(bp) // want `pooled buffer "bp" may be released twice`
}

func discardResult() {
	pool.GetBuf() // want `pooled buffer result is discarded \(leak\)`
}

// leakFromFrame drops the buffer ReadFrame transferred to us: the
// marked return made this function the owner, and no path releases it.
func leakFromFrame(src []byte) error {
	bp, err := pool.ReadFrame(src) // want `pooled buffer "bp" is not released on`
	if err != nil {
		return err
	}
	sink(*bp)
	return nil
}

func overwriteWhileOwned() {
	bp := pool.GetBuf()
	bp = pool.GetBuf() // want `pooled buffer "bp" is overwritten while still owned`
	pool.PutBuf(bp)
}

func leakInLoop(n int) {
	for i := 0; i < n; i++ {
		bp := pool.GetBuf() // want `pooled buffer "bp" is not released by the end of the loop iteration`
		sink(*bp)
	}
}

// releaseAfterMuxHandOff: Enqueue's takes-buf parameter already moved
// ownership to the mux; the explicit release after it is a double
// release.
func releaseAfterMuxHandOff(m *pool.Mux) {
	bp := pool.GetBuf()
	m.Enqueue(*bp, bp)
	pool.PutBuf(bp) // want `pooled buffer "bp" may be released twice`
}

// leakScratchOnEarlyReturn: a pooled scratch record is owned like a buffer.
func leakScratchOnEarlyReturn(cond bool) {
	sc := pool.GetScratch() // want `pooled buffer "sc" is not released on`
	if cond {
		return
	}
	pool.PutScratch(sc)
}

// leakPairsAfterUse mirrors an rpc handler arm that forgets putPairBuf on
// its error return.
func leakPairsAfterUse(src []byte, fail bool) error {
	pp, err := pool.DecodePairs(src) // want `pooled buffer "pp" is not released on`
	if err != nil {
		return err
	}
	if fail {
		return errFailed
	}
	pool.PutPairs(pp)
	return nil
}
