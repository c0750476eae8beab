package core

import (
	"math/rand/v2"
	"testing"

	"shhc/internal/fingerprint"
)

// TestFlightTableMatchesMap runs seeded puts, gets and deletes against a map.
// The fingerprints share a few home slots at every table size — their
// Bucket64 top bytes are 0x00, 0x80, 0xfe or 0xff, the last two at the end
// of the slot array, so probe runs wrap — and differ below, where the
// stripe selector reads.
func TestFlightTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 42))
		tops := []uint64{0x00, 0x80, 0xfe, 0xff}
		pool := make([]fingerprint.Fingerprint, 200)
		for i := range pool {
			b := tops[rng.IntN(len(tops))]<<56 | rng.Uint64()>>8
			pool[i] = fingerprint.FromWords(rng.Uint64(), b, uint32(i))
		}
		var tab flightTable
		oracle := make(map[fingerprint.Fingerprint]*flight)
		flights := make([]flight, len(pool))
		for op := 0; op < 20000; op++ {
			k := rng.IntN(len(pool))
			fp := pool[k]
			switch r := rng.IntN(10); {
			case r < 4:
				tab.put(fp, &flights[k])
				oracle[fp] = &flights[k]
			case r < 7:
				tab.del(fp)
				delete(oracle, fp)
			default:
				got, ok := tab.get(fp)
				want, wok := oracle[fp]
				if ok != wok || got != want {
					t.Fatalf("seed %d op %d: get(%d) = %p, %v; want %p, %v", seed, op, k, got, ok, want, wok)
				}
			}
			if tab.n != len(oracle) {
				t.Fatalf("seed %d op %d: table holds %d, map %d", seed, op, tab.n, len(oracle))
			}
			if op%1000 == 0 || len(oracle) == 0 {
				for i, fp := range pool {
					got, ok := tab.get(fp)
					if want, wok := oracle[fp]; ok != wok || got != want {
						t.Fatalf("seed %d op %d: get(%d) = %p, %v; want %p, %v", seed, op, i, got, ok, want, wok)
					}
				}
			}
		}
	}
}

// TestAllocFlightTableSteadyState: once a table has grown to a stripe's
// working set, registering and landing flights allocates nothing.
func TestAllocFlightTableSteadyState(t *testing.T) {
	var tab flightTable
	var f flight
	fps := make([]fingerprint.Fingerprint, 256)
	for i := range fps {
		fps[i] = fp(uint64(i))
		tab.put(fps[i], &f)
	}
	for _, fp := range fps {
		tab.del(fp)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, fp := range fps {
			tab.put(fp, &f)
		}
		for _, fp := range fps {
			tab.del(fp)
		}
	})
	if allocs != 0 || tab.n != 0 {
		t.Fatalf("a put/del cycle of %d flights allocated %v times, left %d", len(fps), allocs, tab.n)
	}
}
