//go:build !race

package hashdb

const raceEnabled = false
