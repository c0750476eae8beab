//go:build race

package main

// raceEnabled relaxes the smoke test's time limit: the race detector makes
// the stack several times slower.
const raceEnabled = true
