package core

import (
	"fmt"
	"reflect"
	"testing"

	"causalgc/internal/ids"
	"causalgc/internal/vclock"
)

// payloads is a Sender that keeps every propagation and edge-destruction
// payload it is handed, as handed.
type payloads struct {
	fakeSender
	props    []Propagation
	destroys []DestroyMsg
}

func (s *payloads) SendDestroy(from, to ids.ClusterID, m DestroyMsg, seq uint64) uint64 {
	s.destroys = append(s.destroys, m)
	return s.fakeSender.SendDestroy(from, to, m, seq)
}

func (s *payloads) SendPropagate(from, to ids.ClusterID, m Propagation) {
	s.props = append(s.props, m)
}

// nopSender sends nothing and draws one sequence for everything.
type nopSender struct{}

func (nopSender) SendDestroy(_, _ ids.ClusterID, _ DestroyMsg, _ uint64) uint64 { return 1 }
func (nopSender) SendAssert(_, _ ids.ClusterID, _ AssertMsg, _ uint64) uint64   { return 1 }
func (nopSender) SendPropagate(_, _ ids.ClusterID, _ Propagation)               {}
func (nopSender) SettleFrame(ids.SiteID, Stream, uint64)                        {}

// fanOut registers cA, held live by the root r1, with the given remote
// successors (one per site, from site 2 on) and, when local is set, cB
// as a local one, and returns cA's process marked active.
func fanOut(e *Engine, remotes int, local bool) *process {
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0)
	for i := 0; i < remotes; i++ {
		e.EdgeUp(cA, ids.ClusterID{Site: ids.SiteID(2 + i), Seq: 1}, true, ids.NoCluster, 0)
	}
	if local {
		e.Register(cB)
		e.EdgeUp(cA, cB, true, ids.NoCluster, 0)
	}
	e.Drain()
	p := e.procs[cA]
	p.active = true
	return p
}

// One evaluation assembles one payload: every out-edge, remote or local,
// carries the same value.
func TestPropagationSharedAcrossEdges(t *testing.T) {
	ps := &payloads{}
	e := New(1, ps, nil, Options{})
	p := fanOut(e, 8, true)
	e.evaluate(p, true)
	if len(ps.props) != 8 {
		t.Fatalf("remote propagations = %d, want 8", len(ps.props))
	}
	if len(e.inbox) != 1 || e.inbox[0].kind != deliverPropagate || e.inbox[0].to != cB {
		t.Fatalf("inbox = %+v, want one propagation to %v", e.inbox, cB)
	}
	want := reflect.ValueOf(e.inbox[0].prop.Auth).Pointer()
	for i, m := range ps.props {
		if got := reflect.ValueOf(m.Auth).Pointer(); got != want {
			t.Fatalf("propagation %d has its own Auth map (%#x, want %#x)", i, got, want)
		}
	}
	e.Drain()
}

// TestPropagateAllocs bounds the allocations of one evaluation that
// propagates along eight remote out-edges. The payload is assembled once
// and shared, so the count does not grow with the fan-out: the closure
// and one assembly cost 38 allocations here, where a deep copy of the
// payload per edge made it 262. The bound of 40 leaves a little room
// for map growth and fails if per-edge copying returns.
func TestPropagateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	e := New(1, nopSender{}, nil, Options{})
	p := fanOut(e, 8, false)
	got := testing.AllocsPerRun(100, func() { e.evaluate(p, true) })
	t.Logf("one evaluate at fan-out 8: %.0f allocations", got)
	if got > 40 {
		t.Fatalf("one evaluate at fan-out 8 allocates %.0f times, want <= 40", got)
	}
}

// overwrite scribbles over every map entry and slice element of v, and
// adds an entry to every map.
func overwrite(v vclock.Vector) {
	for q := range v {
		v[q] = vclock.At(1 << 40)
	}
	v[ids.ClusterID{Site: 9, Seq: 9}] = vclock.Eps(1 << 40)
}

func overwriteCols(cols []ids.ClusterID) {
	for i := range cols {
		cols[i] = ids.ClusterID{Site: 9, Seq: 9}
	}
}

// A receiver merges a payload by value: overwriting a delivered
// propagation or edge-destruction after the fact leaves its log as it
// was.
func TestDeliveredPayloadsNotRetained(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0)
	e.Drain()
	third := ids.ClusterID{Site: 3, Seq: 4}
	intro := ids.ClusterID{Site: 3, Seq: 7}
	prop := Propagation{
		Clock:    7,
		Auth:     vclock.Vector{cA: vclock.At(2), third: vclock.At(3)},
		HintCols: []ids.ClusterID{third},
		Rows: map[ids.ClusterID]RowGossip{
			third: {Auth: vclock.Vector{rem: vclock.At(5)}, HintCols: []ids.ClusterID{intro}},
		},
		OBs: map[ids.ClusterID]OBGossip{
			cA:    {Auth: vclock.Vector{rem: vclock.At(6)}, Hints: vclock.Vector{third: vclock.At(4)}},
			third: {Auth: vclock.Vector{rem: vclock.At(6)}, Hints: vclock.Vector{intro: vclock.At(2)}},
		},
	}
	destroy := DestroyMsg{
		Auth:      vclock.Vector{rem: vclock.Eps(8), third: vclock.At(3)},
		Hints:     vclock.Vector{intro: vclock.At(5)},
		Processed: vclock.Vector{third: vclock.At(4)},
	}
	e.HandlePropagate(cA, rem, prop)
	e.HandleDestroyFrame(cA, rem, destroy, 1, false)
	before := e.LogSnapshot(cA)
	if before == nil {
		t.Fatal("cA was removed")
	}

	overwrite(prop.Auth)
	overwriteCols(prop.HintCols)
	for _, r := range prop.Rows {
		overwrite(r.Auth)
		overwriteCols(r.HintCols)
	}
	for _, ob := range prop.OBs {
		overwrite(ob.Auth)
		overwrite(ob.Hints)
	}
	overwrite(destroy.Auth)
	overwrite(destroy.Hints)
	overwrite(destroy.Processed)

	if after := e.LogSnapshot(cA); !reflect.DeepEqual(before, after) {
		t.Fatalf("overwriting delivered payloads changed the receiver's log:\nbefore %v\nafter  %v", before, after)
	}
}

// A sender never writes a payload it handed out: the on-behalf rows and
// stamps a propagation or an Ē bundle was built from move on, the sent
// values do not.
func TestSentPayloadsNotMutated(t *testing.T) {
	ps := &payloads{}
	e := New(1, ps, nil, Options{})
	p := fanOut(e, 2, false)
	peer := ids.ClusterID{Site: 2, Seq: 1}
	gone := ids.ClusterID{Site: 3, Seq: 1}
	intro := ids.ClusterID{Site: 4, Seq: 2}
	e.SentRef(cA, gone, peer)
	e.EdgeUp(cA, gone, false, intro, 5)
	e.EdgeDown(cA, gone)
	e.evaluate(p, true)
	e.Drain()
	if len(ps.destroys) != 1 || len(ps.props) != 1 {
		t.Fatalf("sent %d destroys and %d propagations, want 1 and 1", len(ps.destroys), len(ps.props))
	}
	bundle, prop := ps.destroys[0], ps.props[0]
	bundleCopy, propCopy := cloneDestroy(bundle), cloneProp(prop)
	if len(bundle.Hints) == 0 || len(bundle.Processed) == 0 || len(prop.OBs) == 0 {
		t.Fatalf("payloads too thin to test: bundle %v, propagation %v", bundle, prop)
	}

	e.EdgeUp(cA, gone, true, intro, 9)
	e.SentRef(cA, gone, peer)
	e.SentRef(cA, peer, gone)
	e.EdgeUp(cA, peer, false, intro, 11)
	e.EdgeDown(cA, gone)
	e.EdgeDown(cA, peer)
	e.Drain()

	// Compared as rendered (maps print sorted): the copies keep no
	// difference between a nil and an empty slice.
	if fmt.Sprint(bundle) != fmt.Sprint(bundleCopy) {
		t.Errorf("sent Ē bundle changed:\nsent %v\nnow  %v", bundleCopy, bundle)
	}
	if fmt.Sprint(prop) != fmt.Sprint(propCopy) {
		t.Errorf("sent propagation changed:\nsent %v\nnow  %v", propCopy, prop)
	}
}

// Refresh evaluates born processes only, and only they join its episode:
// an unborn process that no destroy or propagation has activated is
// still inactive when it is born, so its birth evaluation does not
// propagate.
func TestRefreshLeavesUnbornInactive(t *testing.T) {
	ps := &payloads{}
	e := New(1, ps, nil, Options{})
	succ := ids.ClusterID{Site: 3, Seq: 1}
	e.HandleAssertFrame(cA, rem, AssertMsg{Stamp: 3}, 1)
	e.EdgeUp(cA, succ, true, ids.NoCluster, 0)
	e.Refresh()
	e.Register(cA)
	e.Drain()
	if e.Removed(cA) || !e.Registered(cA) {
		t.Fatal("cA is not live and born")
	}
	if len(ps.props) != 0 {
		t.Fatalf("an inactive process propagated at birth: %d propagations", len(ps.props))
	}
}
