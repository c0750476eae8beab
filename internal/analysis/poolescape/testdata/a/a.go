// Positive cases: every way a pooled buffer can outlive its release.
package a

import "poolescapetest/pool"

type holder struct {
	buf *[]byte
}

var global *[]byte

func storeInField(h *holder) {
	h.buf = pool.GetBuf() // want `pooled buffer stored in field buf may outlive its release`
}

func storeInGlobal() {
	global = pool.GetBuf() // want `pooled buffer stored in package variable global may outlive its release`
}

func storeInLiteral() holder {
	return holder{buf: pool.GetBuf()} // want `pooled buffer stored in a composite literal may outlive its release`
}

func sendOnChannel(ch chan *[]byte) {
	ch <- pool.GetBuf() // want `pooled buffer sent on a channel escapes its release scope`
}

func unmarkedReturn() *[]byte {
	return pool.GetBuf() // want `pooled buffer returned from a function not marked //shhc:returns-buf hides the ownership transfer`
}

func storeInSlice(dst []*[]byte) {
	dst[0] = pool.GetBuf() // want `pooled buffer stored in a slice or map element may outlive its release`
}

type scratchHolder struct {
	sc *pool.Scratch
}

func storeScratchInField(h *scratchHolder) {
	h.sc = pool.GetScratch() // want `pooled buffer stored in field sc may outlive its release`
}

func unmarkedScratchReturn() *pool.Scratch {
	sc := pool.GetScratch()
	return sc // want `pooled buffer returned from a function not marked //shhc:returns-buf hides the ownership transfer`
}
