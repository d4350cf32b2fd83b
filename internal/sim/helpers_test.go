package sim

import (
	"testing"

	"causalgc/internal/oracle"
)

// run drains w's network, failing t on an error.
func run(t *testing.T, w *World) {
	t.Helper()
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// settle settles w, failing t on an error.
func settle(t *testing.T, w *World) {
	t.Helper()
	if err := w.Settle(); err != nil {
		t.Fatal(err)
	}
}

// refreshSettled runs n refresh rounds on w, each settled, failing t on
// an error.
func refreshSettled(t *testing.T, w *World, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := w.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		settle(t, w)
	}
}

// recoverResidual runs up to rounds refresh rounds, each settled, while
// rep shows garbage, and returns the oracle's last report.
func recoverResidual(t *testing.T, w *World, rep oracle.Report, rounds int) oracle.Report {
	t.Helper()
	for i := 0; i < rounds && len(rep.Garbage) > 0; i++ {
		refreshSettled(t, w, 1)
		rep = w.Check()
	}
	return rep
}
