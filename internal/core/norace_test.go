//go:build !race

package core

// raceEnabled reports a -race build, whose allocation counts are inflated.
const raceEnabled = false
