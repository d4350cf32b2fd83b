package core

import (
	"fmt"
	"testing"

	"causalgc/internal/ids"
	"causalgc/internal/vclock"
)

// edgeSender keeps every propagation with the edge it was sent on.
type edgeSender struct {
	fakeSender
	sent map[ids.ClusterID]Propagation
}

func (s *edgeSender) SendPropagate(from, to ids.ClusterID, m Propagation) {
	s.sent[to] = m
}

// take returns the propagations sent since the last take, by edge.
func (s *edgeSender) take() map[ids.ClusterID]Propagation {
	out := s.sent
	s.sent = make(map[ids.ClusterID]Propagation)
	return out
}

var (
	gossipX = ids.ClusterID{Site: 2, Seq: 1}
	gossipY = ids.ClusterID{Site: 3, Seq: 1}
	gossipZ = ids.ClusterID{Site: 4, Seq: 1}
)

// gossipCast builds cA, held live by r1, with out-edges to X and Y, and
// X's propagation about itself and Z: cA's closure expands X and Z, so
// its payload carries rows X and Z (X's own row goes out on the edge to
// X) and on-behalf entries for X and Y. The first propagations, on
// unmarked edges, are taken.
func gossipCast(t *testing.T) (*Engine, *edgeSender) {
	t.Helper()
	s := &edgeSender{sent: make(map[ids.ClusterID]Propagation)}
	e := New(1, s, nil, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0)
	e.EdgeUp(cA, gossipX, true, ids.NoCluster, 0)
	e.EdgeUp(cA, gossipY, true, ids.NoCluster, 0)
	e.HandlePropagate(cA, gossipX, Propagation{
		Clock: 5,
		Auth:  vclock.Vector{gossipZ: vclock.At(3), cA: vclock.At(2)},
		Rows:  map[ids.ClusterID]RowGossip{gossipZ: {Auth: vclock.Vector{gossipX: vclock.At(2)}}},
	})
	first := s.take()
	for _, k := range []ids.ClusterID{gossipX, gossipY} {
		if got := shipped(first[k]); got != fullPayload {
			t.Fatalf("first propagation to %v ships %s, want %s", k, got, fullPayload)
		}
	}
	return e, s
}

// fullPayload is what gossipCast's cA ships on an unmarked edge.
const fullPayload = "rows [s2/c1 s4/c1] obs [s2/c1 s3/c1]"

// shipped renders the row and on-behalf keys a propagation carries.
func shipped(m Propagation) string {
	rows := make([]ids.ClusterID, 0, len(m.Rows))
	for q := range m.Rows {
		rows = append(rows, q)
	}
	obs := make([]ids.ClusterID, 0, len(m.OBs))
	for x := range m.OBs {
		obs = append(obs, x)
	}
	ids.SortClusters(rows)
	ids.SortClusters(obs)
	return fmt.Sprintf("rows %v obs %v", rows, obs)
}

// propagateAgain forces one propagating evaluation of cA and returns
// what each edge carried.
func propagateAgain(e *Engine, s *edgeSender) map[ids.ClusterID]Propagation {
	e.evaluate(e.procs[cA])
	e.Drain()
	return s.take()
}

// A second evaluation with nothing new carries the own state only: no
// row and no on-behalf entry crosses an edge twice.
func TestDeltaShipsNothingTwice(t *testing.T) {
	e, s := gossipCast(t)
	again := propagateAgain(e, s)
	if len(again) != 2 {
		t.Fatalf("%d propagations, want one per edge (2): every send still happens", len(again))
	}
	for k, m := range again {
		if got := shipped(m); got != "rows [] obs []" {
			t.Errorf("repeat propagation to %v ships %s, want nothing but the own state", k, got)
		}
		if len(m.Auth) == 0 || m.Clock != e.Clock(cA) {
			t.Errorf("repeat propagation to %v lost the own state: clock %d auth %v", k, m.Clock, m.Auth)
		}
	}
}

// A row that changed ships alone, on every edge but its owner's.
func TestDeltaShipsChangedRowAlone(t *testing.T) {
	e, s := gossipCast(t)
	e.HandlePropagate(cA, gossipX, Propagation{
		Clock: 5,
		Auth:  vclock.Vector{gossipZ: vclock.At(3), cA: vclock.At(2)},
		Rows:  map[ids.ClusterID]RowGossip{gossipZ: {Auth: vclock.Vector{gossipX: vclock.At(4)}}},
	})
	for k, m := range s.take() {
		if got := shipped(m); got != "rows [s4/c1] obs []" {
			t.Errorf("after Z's row changed, the propagation to %v ships %s, want row Z alone", k, got)
		}
	}
}

// The receiver's own row never goes to it on a marked edge: a change to
// X's row reaches Y, not X.
func TestDeltaNeverShipsReceiversRow(t *testing.T) {
	e, s := gossipCast(t)
	e.HandlePropagate(cA, gossipX, Propagation{
		Clock: 6,
		Auth:  vclock.Vector{gossipZ: vclock.At(7), cA: vclock.At(2)},
	})
	sent := s.take()
	if got := shipped(sent[gossipY]); got != "rows [s2/c1] obs []" {
		t.Errorf("the propagation to Y ships %s, want X's changed row", got)
	}
	if got := shipped(sent[gossipX]); got != "rows [] obs []" {
		t.Errorf("the propagation to X ships %s, want none of X's own row", got)
	}
}

// An edge with no mark ships the full payload: a re-formed edge, every
// edge in a refresh round, every edge into a restarted peer's site, and
// every edge of a process restored from an image, whose rows and
// on-behalf entries draw their versions afresh.
func TestDeltaUnmarkedEdgesShipInFull(t *testing.T) {
	t.Run("re-formed edge", func(t *testing.T) {
		e, s := gossipCast(t)
		e.EdgeDown(cA, gossipY)
		e.EdgeUp(cA, gossipY, true, ids.NoCluster, 0)
		sent := propagateAgain(e, s)
		if got := shipped(sent[gossipY]); got != fullPayload {
			t.Errorf("re-formed edge to Y ships %s, want %s", got, fullPayload)
		}
		// The edge to X carries the one entry that changed: Y's.
		if got := shipped(sent[gossipX]); got != "rows [] obs [s3/c1]" {
			t.Errorf("edge to X ships %s, want Y's on-behalf entry alone", got)
		}
	})
	t.Run("refresh", func(t *testing.T) {
		e, s := gossipCast(t)
		e.Refresh()
		for _, k := range []ids.ClusterID{gossipX, gossipY} {
			if got := shipped(s.sent[k]); got != fullPayload {
				t.Errorf("refresh ships %s to %v, want %s", got, k, fullPayload)
			}
		}
	})
	t.Run("peer restart", func(t *testing.T) {
		e, s := gossipCast(t)
		e.PeerRestarted(gossipY.Site)
		sent := propagateAgain(e, s)
		if got := shipped(sent[gossipY]); got != fullPayload {
			t.Errorf("edge into the restarted site ships %s, want %s", got, fullPayload)
		}
		if got := shipped(sent[gossipX]); got != "rows [] obs []" {
			t.Errorf("edge into a live site ships %s, want nothing new", got)
		}
	})
	t.Run("restore", func(t *testing.T) {
		e, _ := gossipCast(t)
		img, err := e.Export()
		if err != nil {
			t.Fatal(err)
		}
		s := &edgeSender{sent: make(map[ids.ClusterID]Propagation)}
		back, err := Restore(1, s, nil, Options{}, img)
		if err != nil {
			t.Fatal(err)
		}
		sent := propagateAgain(back, s)
		for _, k := range []ids.ClusterID{gossipX, gossipY} {
			if got := shipped(sent[k]); got != fullPayload {
				t.Errorf("first propagation to %v after a restore ships %s, want %s", k, got, fullPayload)
			}
		}
	})
}
