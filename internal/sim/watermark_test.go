package sim

import (
	"fmt"
	"reflect"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/ids"
	"causalgc/internal/mutator"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
	"causalgc/internal/wire"
	"causalgc/persist"
)

// streamEnd is one retirement stream as the two sites at its ends
// record it: the sender's last assigned sequence and the receiver's
// cumulative watermark with what waits above it.
type streamEnd struct {
	lastSent, watermark uint64
	pending             int
}

// TestQuiescentWatermarksMeet: on lossy durable worlds of width 1, 2
// and 4 — control frames dropped, duplicated and reordered, and one
// partition that heals — refresh rounds run until a round changes no
// ledger and no stream. Then every receive watermark equals its
// sender's last assigned sequence on every (peer, stream), with nothing
// pending above it, every ledger is empty, and the oracle is clean. A
// sequence the sender abandoned, never to send again, would leave its
// receiver's watermark stalled below it.
func TestQuiescentWatermarksMeet(t *testing.T) {
	const sites = 4
	for _, width := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("width=%d/seed=%d", width, seed), func(t *testing.T) {
				dir := t.TempDir()
				w, err := newWorld(sites, netsim.Faults{Seed: seed, DropProb: 0.1, DupProb: 0.05, Reorder: true}, site.DefaultOptions(), dir, 64, width)
				if err != nil {
					t.Fatal(err)
				}
				churn := func(s int64) {
					t.Helper()
					if _, err := mutator.Churn(w, mutator.ChurnConfig{Seed: s, Ops: 80, StepsBetweenOps: 2}); err != nil {
						t.Fatal(err)
					}
				}
				refresh := func() {
					t.Helper()
					refreshSettled(t, w, 1)
				}
				churn(seed * 31)
				w.Net().SetPartition(func(from, to ids.SiteID) bool { return (from <= 2) != (to <= 2) })
				churn(seed * 37)
				refresh()
				w.Net().SetPartition(nil)
				churn(seed * 41)
				refresh()
				w.Net().SetDropProb(0)
				w.Net().SetDupProb(0)

				// A round is quiescent when it leaves every ledger empty and
				// every stream as the round before left it.
				var last map[string]streamEnd
				rounds := 0
				for ; rounds < 64; rounds++ {
					refresh()
					ends := liveStreamEnds(t, w)
					if retainedRows(w) == 0 && reflect.DeepEqual(ends, last) {
						break
					}
					last = ends
				}
				if rounds == 64 {
					t.Fatalf("no quiescent round in 64: %d rows retained", retainedRows(w))
				}
				t.Logf("quiescent after %d rounds; %d streams", rounds+1, len(last))
				if rep := w.Check(); !rep.Clean() {
					t.Fatalf("not clean at quiescence: %v", rep)
				}
				for _, s := range w.Sites() {
					if d := s.Depths(); d != (site.Depths{}) {
						t.Errorf("site %v: depths %+v at quiescence, want all zero", s.ID(), d)
					}
				}
				for k, e := range last {
					if e.watermark != e.lastSent || e.pending != 0 {
						t.Errorf("stream %s: receiver at watermark %d with %d pending, sender assigned up to %d", k, e.watermark, e.pending, e.lastSent)
					}
				}
				if len(last) == 0 {
					t.Fatal("the program opened no retirement stream")
				}
			})
		}
	}
}

// retainedRows sums every site's ledgers: outbox, assert journal and
// destroy bundles.
func retainedRows(w *World) int {
	n := 0
	for _, s := range w.Sites() {
		d := s.Depths()
		n += d.Outbox + d.AssertRows + d.DestroyRows
	}
	return n
}

// liveStreamEnds checkpoints every site, reads the stream tables back
// from the snapshots, and reopens the sites (replaying nothing, as the
// checkpoint covered everything), keyed "sender→receiver stream".
func liveStreamEnds(t *testing.T, w *World) map[string]streamEnd {
	t.Helper()
	images := make([]*wire.SiteImage, len(w.sites))
	for i, s := range w.sites {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		id := s.ID()
		if err := w.Crash(id); err != nil {
			t.Fatal(err)
		}
		st, err := persist.Open(w.durable[i].dir, persist.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		img, err := wire.DecodeSnapshot(st.Snapshot())
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		images[i] = img
		if err := w.Restart(id); err != nil {
			t.Fatal(err)
		}
	}
	key := func(from, to ids.SiteID, kind core.Stream) string { return fmt.Sprintf("%v→%v %v", from, to, kind) }
	ends := make(map[string]streamEnd)
	for _, img := range images {
		for _, s := range img.SendStreams {
			e := ends[key(img.Site, s.Peer, s.Kind)]
			e.lastSent = s.NextSeq
			ends[key(img.Site, s.Peer, s.Kind)] = e
		}
		for _, r := range img.RecvStreams {
			e := ends[key(r.Peer, img.Site, r.Kind)]
			e.watermark, e.pending = r.Watermark, len(r.Pending)
			ends[key(r.Peer, img.Site, r.Kind)] = e
		}
	}
	return ends
}
