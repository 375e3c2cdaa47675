//go:build race

package server

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a share of what is Put, so allocation counts of pooled paths are noise.
const raceEnabled = true
