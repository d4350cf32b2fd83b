package vclock

import (
	"strings"
	"testing"

	"causalgc/internal/ids"
)

func TestLogBasics(t *testing.T) {
	l := NewLog(c2)
	if l.Owner() != c2 {
		t.Fatalf("Owner = %v, want %v", l.Owner(), c2)
	}
	if l.PeekVRow(c3) != nil || l.PeekOB(c3) != nil {
		t.Error("Peek must not create rows")
	}
	r := l.VRow(c3)
	if r == nil || r.Confirmed {
		t.Fatal("VRow must create an unconfirmed row")
	}
	if l.PeekVRow(c3) != r {
		t.Error("VRow must be cached")
	}
	ob := l.OB(c4)
	ob.Auth.Set(c2, At(1))
	if got := l.PeekOB(c4).Auth.Get(c2); got != At(1) {
		t.Errorf("OB entry = %v, want 1", got)
	}
	procs := l.Processes()
	if len(procs) != 3 { // owner + c3 + c4
		t.Errorf("Processes = %v, want 3 entries", procs)
	}
}

func TestLogMergeVRow(t *testing.T) {
	l := NewLog(c2)
	v := Vector{c3: At(2), r1: At(1)}
	if !l.MergeVRow(c3, v, nil, true, false) {
		t.Error("first merge must report change")
	}
	if l.Confirmed(c3) {
		t.Error("unconfirmed merge must not confirm")
	}
	if l.MergeVRow(c3, v, nil, true, false) {
		t.Error("idempotent merge must not report change")
	}
	if !l.MergeVRow(c3, v, nil, true, true) {
		t.Error("confirming merge must report change")
	}
	if !l.Confirmed(c3) {
		t.Error("row must be confirmed")
	}
	// Stale values must not regress entries.
	if l.MergeVRow(c3, Vector{c3: At(1)}, nil, true, true) {
		t.Error("stale merge must not report change")
	}
	if got := l.PeekVRow(c3).Auth.Get(c3); got != At(2) {
		t.Errorf("entry regressed to %v", got)
	}
}

// Scenario of the paper, Figs 3–5: a cycle {2,3,4} loses its root edge.
// This drives the log of process 2 by hand and checks the closure.
func TestLogClosureCycleScenario(t *testing.T) {
	l := NewLog(c2)

	// Lazy log-keeping at 2: incoming edge from root 1 (creation), later
	// destroyed; incoming edge from 4 (2 sent its own reference to 4).
	l.Own().Set(r1, Eps(1))
	l.Own().Set(c4, At(1))

	// Before any GGD circulation, 4's ancestry is unknown: the closure
	// must be incomplete and must not certify garbage.
	res := l.Closure(3)
	if res.Complete {
		t.Fatal("closure with unconfirmed live predecessor must be incomplete")
	}
	if res.Garbage() {
		t.Fatal("incomplete closure must never certify garbage")
	}
	if res.LiveRoot || res.Expanded.Has(r1) {
		t.Errorf("the destroyed root edge Ē1 must not be walked: expanded %v", res.Expanded.Sorted())
	}

	// GGD circulation confirms the cycle's rows: no root anywhere.
	l.MergeVRow(c4, Vector{c4: At(2), c2: At(1), c3: At(1)}, nil, true, true)
	l.MergeVRow(c3, Vector{c3: At(2), c2: At(1), c4: At(1)}, nil, true, true)
	res = l.Closure(3)
	if !res.Complete {
		t.Fatalf("closure must be complete once all live rows are confirmed:\n%v", l)
	}
	if !res.Garbage() {
		t.Fatalf("cycle with destroyed root edge must be garbage:\n%v", l)
	}
	if !res.Expanded.Has(c3) {
		t.Error("closure must pick up transitive predecessor 3 via 4's row")
	}
}

func TestLogClosureLiveRootThroughCycle(t *testing.T) {
	// 1 → 4 → 2 and a destroyed 1 → 2: 2 is live via 4 even though its
	// own direct root edge is destroyed: across paths, live wins.
	l := NewLog(c2)
	l.Own().Set(r1, Eps(1))
	l.Own().Set(c4, At(1))
	l.MergeVRow(c4, Vector{c4: At(2), r1: At(2), c2: At(1)}, nil, true, true)

	res := l.Closure(4)
	if !res.Complete {
		t.Fatal("closure should be complete")
	}
	if res.Garbage() {
		t.Fatal("2 must not be garbage: live root path via 4")
	}
	if !res.LiveRoot || !res.Expanded.Has(c4) {
		t.Errorf("root must be reached over the live path via 4: expanded %v", res.Expanded.Sorted())
	}
}

func TestLogClosureRootColumnTerminal(t *testing.T) {
	// A live actual-root column needs no confirmed row: roots are alive by
	// fiat.
	l := NewLog(c2)
	l.Own().Set(r1, At(1))
	res := l.Closure(1)
	if !res.Complete {
		t.Fatal("root columns are terminal; closure must be complete")
	}
	if res.Garbage() {
		t.Fatal("live root edge must keep the owner alive")
	}
}

func TestLogClosureSelfColumnNotOverridden(t *testing.T) {
	l := NewLog(c2)
	l.Own().Set(c3, At(1))
	// 3's row claims an edge from 2 (a stale relayed value); the owner
	// is the walk's start, so the claim neither re-expands it nor makes
	// the closure incomplete.
	l.MergeVRow(c3, Vector{c3: At(1), c2: At(99)}, nil, true, true)
	res := l.Closure(5)
	if len(res.Expanded) != 2 || !res.Expanded.Has(c2) || !res.Expanded.Has(c3) {
		t.Errorf("expanded %v, want exactly the owner and 3", res.Expanded.Sorted())
	}
	if !res.Garbage() {
		t.Errorf("rootless 2 ⇄ 3 must be garbage:\n%v", l)
	}
}

func TestLogClosureExpandOnceTerminates(t *testing.T) {
	// Mutual recursion 2 ⇄ 3 must terminate and stay live while a root
	// path exists anywhere in the strongly connected set.
	l := NewLog(c2)
	l.Own().Set(c3, At(1))
	l.MergeVRow(c3, Vector{c3: At(1), c2: At(1), r1: At(1)}, nil, true, true)
	res := l.Closure(2)
	if res.Garbage() {
		t.Fatal("root path via 3 must keep 2 alive")
	}
	if !res.Expanded.Has(c3) {
		t.Error("3 must have been expanded")
	}
}

func TestLogClosureDeadEdgeNotExpanded(t *testing.T) {
	// An Ē stamp cuts off expansion: 3's row would claim a root path, but
	// the edge 3→2 is destroyed.
	l := NewLog(c2)
	l.Own().Set(c3, Eps(2))
	l.MergeVRow(c3, Vector{c3: At(1), r1: At(1)}, nil, true, true)
	res := l.Closure(2)
	if !res.Complete {
		t.Fatal("closure must be complete: no live columns at all")
	}
	if !res.Garbage() {
		t.Fatalf("destroyed edge must not transmit root liveness:\n%v", l)
	}
	if res.Expanded.Has(c3) {
		t.Error("3 must not be expanded over the destroyed edge")
	}
}

func TestLogClosureOnBehalfEntriesExpand(t *testing.T) {
	// On-behalf entries participate in expansion: 2 brokered edge 3→4, so
	// its closure must count 3 among 4's ancestry when expanding 4.
	l := NewLog(c2)
	l.Own().Set(c4, At(1))
	l.OB(c4).Hints.Set(c3, At(1)) // 2 sent a ref-to-4 to 3
	l.MergeVRow(c4, Vector{c4: At(1)}, nil, true, true)
	l.MergeVRow(c3, Vector{c3: At(1), r1: At(1)}, nil, true, true)
	res := l.Closure(2)
	if !res.Expanded.Has(c3) {
		t.Fatalf("3 must be expanded via the on-behalf entry: expanded %v", res.Expanded.Sorted())
	}
	if !res.LiveRoot {
		t.Fatal("root liveness must flow through the on-behalf edge")
	}
	if res.Garbage() {
		t.Fatal("must not be garbage")
	}
}

func TestLogClosureLateLiveReexpansion(t *testing.T) {
	// A column first seen dead via one row and later live via another must
	// still be expanded.
	l := NewLog(c2)
	l.Own().Set(c4, Eps(7))
	l.Own().Set(c3, At(1))
	l.MergeVRow(c3, Vector{c3: At(1), c4: At(1)}, nil, true, true)
	l.MergeVRow(c4, Vector{c4: At(1), r1: At(1)}, nil, true, true)
	res := l.Closure(3)
	if !res.LiveRoot || !res.Expanded.Has(c4) {
		t.Fatalf("root must be reached over the live 4-path: expanded %v", res.Expanded.Sorted())
	}
	if res.Garbage() {
		t.Fatal("must not be garbage")
	}
}

func TestLogRender(t *testing.T) {
	l := NewLog(c2)
	l.Own().Set(r1, At(1))
	l.VRow(c3).Auth.Set(c3, At(1))
	l.OB(c4).Hints.Set(c2, At(2))
	out := l.Render([]ids.ClusterID{r1, c2, c3, c4})
	for _, want := range []string{
		"DV[s2/c1]! = (1,0,0,0)",
		"DV[s3/c1]  = (0,0,1,0)",
		"ob[s4/c1]  = (0,0,0,0) fwd (0,2,0,0)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	if s := l.String(); !strings.Contains(s, "s1/R1:1") {
		t.Errorf("String = %q", s)
	}
}

func TestLogCloneIndependence(t *testing.T) {
	l := NewLog(c2)
	l.Own().Set(r1, At(1))
	l.MergeVRow(c3, Vector{c3: At(1)}, nil, true, true)
	l.OB(c4).Hints.Set(c2, At(1))
	cp := l.Clone()
	cp.Own().Set(r1, Eps(2))
	cp.VRow(c3).Auth.Set(c3, At(9))
	cp.OB(c4).Hints.Set(c2, At(9))
	if l.Own().Get(r1) != At(1) {
		t.Error("Clone must not share the own vector")
	}
	if l.PeekVRow(c3).Auth.Get(c3) != At(1) {
		t.Error("Clone must not share vector rows")
	}
	if l.PeekOB(c4).Hints.Get(c2) != At(1) {
		t.Error("Clone must not share on-behalf vectors")
	}
	if !cp.Confirmed(c3) || !l.Confirmed(c3) {
		t.Error("confirmation must be copied")
	}
}

func TestClosureResultGarbage(t *testing.T) {
	tests := []struct {
		name string
		res  ClosureResult
		want bool
	}{
		{"incomplete", ClosureResult{Complete: false}, false},
		{"complete no root", ClosureResult{Complete: true}, true},
		{"complete live root", ClosureResult{Complete: true, LiveRoot: true}, false},
		{"incomplete live root", ClosureResult{LiveRoot: true}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.res.Garbage(); got != tt.want {
				t.Errorf("Garbage() = %t, want %t", got, tt.want)
			}
		})
	}
}

// TestClosureAllocs bounds the allocations of the removal test on a
// confirmed, rootless 8-ring: the expanded set and the work stack. A
// closure that also renders a vector time over every path costs 5.
func TestClosureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	const n = 8
	ring := make([]ids.ClusterID, n)
	for i := range ring {
		ring[i] = ids.ClusterID{Site: ids.SiteID(i + 1), Seq: 1}
	}
	l := NewLog(ring[0])
	l.Own().Set(ring[n-1], At(1))
	for i := 1; i < n; i++ {
		l.MergeVRow(ring[i], Vector{ring[i-1]: At(1)}, nil, true, true)
	}
	if res := l.Closure(1); !res.Garbage() || len(res.Expanded) != n {
		t.Fatalf("rootless ring: garbage %t, expanded %v", res.Garbage(), res.Expanded.Sorted())
	}
	got := testing.AllocsPerRun(100, func() { l.Closure(1) })
	t.Logf("one closure of a confirmed 8-ring: %.0f allocations", got)
	if got > 3 {
		t.Fatalf("one closure of a confirmed 8-ring allocates %.0f times, want <= 3", got)
	}
}

// Row versions: a change draws a fresh one, a merge that changes nothing
// does not, every OB call does, and a row that the previous shipment did
// not include draws one when it is shipped again. A clone keeps every
// version; a restored log gives its on-behalf rows a fresh one, and its
// rows draw one when first shipped.
func TestRowVersions(t *testing.T) {
	l := NewLog(c2)
	l.MergeVRow(c3, Vector{c4: At(1)}, nil, true, true)
	v := l.PeekVRow(c3).Ver
	if v == 0 || v != l.Version() {
		t.Fatalf("a changed row has version %d, log version %d", v, l.Version())
	}
	if l.MergeVRow(c3, Vector{c4: At(1)}, nil, true, true) || l.PeekVRow(c3).Ver != v {
		t.Fatal("a merge that changed nothing drew a version")
	}
	if ob := l.OB(c4); ob.Ver != l.Version() || ob.Ver <= v {
		t.Fatalf("OB drew version %d, log version %d", ob.Ver, l.Version())
	}

	r := l.PeekVRow(c3)
	l.NextShipment()
	first := l.Ship(r)
	l.NextShipment()
	if got := l.Ship(r); got != first {
		t.Fatalf("a row in consecutive shipments moved from version %d to %d", first, got)
	}
	l.NextShipment() // r left out
	l.NextShipment()
	if got := l.Ship(r); got <= first {
		t.Fatalf("a row re-entering the shipped set kept version %d, want above %d", got, first)
	}

	c := l.Clone()
	if c.Version() != l.Version() || c.PeekVRow(c3).Ver != r.Ver || c.PeekOB(c4).Ver != l.PeekOB(c4).Ver {
		t.Fatal("a clone changed a version")
	}
	back := RestoreLog(c2, l.Export())
	if back.PeekOB(c4).Ver == 0 {
		t.Fatal("a restored on-behalf row has version 0, at or below every mark")
	}
	back.NextShipment()
	if got := back.Ship(back.PeekVRow(c3)); got == 0 {
		t.Fatal("a restored row entered the shipped set at version 0")
	}
}
