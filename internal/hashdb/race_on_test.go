//go:build race

package hashdb

// raceEnabled excuses the one test that needs a page-cache chain to cost what
// it costs in a real build: under the race detector it takes 20–40 µs, past
// blockingChain.
const raceEnabled = true
