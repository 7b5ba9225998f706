//go:build race

package rng

// raceEnabled reports a race-detector build. The detector makes sync.Pool
// drop a share of the items put back on purpose, so allocation pins do not
// hold under it.
const raceEnabled = true
