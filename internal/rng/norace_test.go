//go:build !race

package rng

const raceEnabled = false
