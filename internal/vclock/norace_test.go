//go:build !race

package vclock

// raceEnabled reports a -race build, whose allocation counts are inflated.
const raceEnabled = false
