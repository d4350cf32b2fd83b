//go:build !race

package site

// raceEnabled reports a -race build, whose allocation counts are inflated.
const raceEnabled = false
