//go:build race

package persist

// raceEnabled reports a -race build, whose allocation counts are inflated.
const raceEnabled = true
