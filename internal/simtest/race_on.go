//go:build race

package simtest

const raceEnabled = true
