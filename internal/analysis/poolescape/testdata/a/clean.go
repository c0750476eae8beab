// Negative cases: scoped use, marked transfers, and releases.
package a

import "poolescapetest/pool"

func use([]byte) {}

// scopedUse acquires, uses, releases — nothing escapes.
func scopedUse() {
	bp := pool.GetBuf()
	defer pool.PutBuf(bp)
	use(*bp)
}

// markedReturn declares the ownership transfer, so returning is legal.
//
//shhc:returns-buf
func markedReturn() *[]byte {
	return pool.GetBuf()
}

// passedDown hands the buffer to a marked taker: a release, not an
// escape.
func passedDown() {
	pool.PutBuf(pool.GetBuf())
}

// scratchScoped uses a pooled scratch record and fills its own fields:
// storing INTO the record is not the record escaping.
func scratchScoped(n int) {
	sc := pool.GetScratch()
	defer pool.PutScratch(sc)
	sc.Pairs = append(sc.Pairs[:0], n)
}
