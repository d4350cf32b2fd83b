package determcheck_test

import (
	"testing"

	"causalgc/internal/analysis/analysistest"
	"causalgc/internal/analysis/determcheck"
)

// TestDetermCheck proves the wall-clock, global-rand,
// map-iteration-output and arbitrary-pick rules fire on seeded
// violations (including an aliased time import and the dedup-set
// eviction that once diverged a replay), spare the seeded-rand,
// collect-and-sort, full-pass and existence-check idioms and every
// directive form, and ignore packages outside the determinism contract.
func TestDetermCheck(t *testing.T) {
	a := determcheck.New(determcheck.Config{Packages: []string{"determpkg"}})
	analysistest.Run(t, "testdata", a, "determpkg", "freepkg")
}
