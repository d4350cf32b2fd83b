//go:build race

package wire

// raceEnabled reports a -race build, whose allocation counts are inflated.
const raceEnabled = true
