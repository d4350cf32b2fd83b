package core

import (
	"fmt"
	"math/rand"
	"testing"

	"causalgc/internal/ids"
)

func sameBundle(a, b DestroyMsg) bool {
	return a.Auth.Equal(b.Auth) && a.Hints.Equal(b.Hints) && a.Processed.Equal(b.Processed)
}

// TestDestroyBundleOutlivesItsHolder: the Ē bundle of an edge destroyed
// before its holder was collected is nobody else's to re-ship, so the
// ledger row survives the removal, Refresh re-ships the same bundle under
// the same stream sequence, and only the target site's ack retires it.
func TestDestroyBundleOutlivesItsHolder(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0)
	e.EdgeUp(cA, rem, true, cB, 5)
	e.SentRef(cA, rem, ids.ClusterID{Site: 3, Seq: 1})
	e.EdgeDown(cA, rem)
	e.Drain()
	if len(fs.destroys) != 1 {
		t.Fatalf("destroys = %+v, want the one Ē bundle", fs.destroys)
	}
	first := fs.destroys[0]

	e.EdgeDown(r1, cA)
	e.Drain()
	if !e.Removed(cA) {
		t.Fatal("the holder was not removed")
	}
	if len(fs.destroys) != 1 {
		t.Fatalf("destroys = %+v: the holder had no live remote edge to finalise", fs.destroys)
	}
	if got := e.Retained().DestroyRows; got != 1 {
		t.Fatalf("DestroyRows after the holder's removal = %d, want 1", got)
	}

	// The image carries the row, its sequence and its bundle although the
	// holder is a tombstone: a restored engine re-ships the same frame.
	img, err := e.Export()
	if err != nil {
		t.Fatal(err)
	}
	if d := img.Destroys; len(d) != 1 || d[0].Holder != cA || d[0].Target != rem || d[0].Seq != first.seq || !sameBundle(d[0].M, first.m) {
		t.Fatalf("exported %+v, want the bundle %+v", d, first)
	}
	fs2 := &fakeSender{}
	e2, err := Restore(1, fs2, nil, Options{}, img)
	if err != nil {
		t.Fatal(err)
	}
	e2.Refresh()
	if len(fs2.destroys) != 1 || fs2.destroys[0].seq != first.seq || !sameBundle(fs2.destroys[0].m, first.m) {
		t.Fatalf("restored engine re-shipped %+v, want %+v", fs2.destroys, first)
	}

	e.Refresh()
	if len(fs.destroys) != 2 {
		t.Fatalf("refresh shipped %d bundles, want 1", len(fs.destroys)-1)
	}
	if re := fs.destroys[1]; re.from != cA || re.to != rem || re.seq != first.seq || !sameBundle(re.m, first.m) {
		t.Fatalf("re-sent %+v, want %+v again", re, first)
	}
	if got := e.Stats().DestroyResends; got != 1 {
		t.Errorf("DestroyResends = %d, want 1", got)
	}

	if n := e.AckDestroys(rem.Site, first.seq); n != 1 {
		t.Fatalf("AckDestroys retired %d, want 1", n)
	}
	if got := e.Retained().DestroyRows; got != 0 {
		t.Errorf("DestroyRows after the ack = %d, want 0", got)
	}
	for i := 0; i < 4; i++ {
		e.Refresh()
	}
	if len(fs.destroys) != 2 {
		t.Fatalf("acknowledged bundle re-shipped: %+v", fs.destroys[2:])
	}
}

// TestBundleMatchesOnBehalfRow holds the destroy ledger to the
// specification it was derived from: the newest Ē bundle of a destroyed
// edge is what a rebuild from the holder's on-behalf row for the target
// gives, because that row is frozen from EdgeDown until EdgeUp re-forms
// the edge. (Older rows of a re-formed edge stay until acknowledged;
// their stamps are dominated, not rebuilt.) A seeded mutator program —
// forwardings of held and of own references, destructions,
// re-formations, introductions resolved for live and for destroyed
// edges, acks, refreshes, the odd holder collected — must keep the
// newest outstanding row of every destroyed edge of a live holder equal
// to that rebuild after every step.
func TestBundleMatchesOnBehalfRow(t *testing.T) {
	compared := 0
	for seed := int64(1); seed <= 250; seed++ {
		compared += runBundleProgram(t, seed)
	}
	if compared < 10000 {
		t.Fatalf("only %d rows compared: the program no longer keeps bundles outstanding", compared)
	}
}

func runBundleProgram(t *testing.T, seed int64) (compared int) {
	rng := rand.New(rand.NewSource(seed))
	e, fs, _ := newEngine(t, Options{})
	holders := []ids.ClusterID{r1, cA, cB}
	var remotes []ids.ClusterID
	for site := ids.SiteID(2); site <= 3; site++ {
		for seq := uint64(1); seq <= 3; seq++ {
			remotes = append(remotes, ids.ClusterID{Site: site, Seq: seq})
		}
	}
	for _, h := range holders {
		e.Register(h)
	}
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0)
	e.EdgeUp(r1, cB, true, ids.NoCluster, 0)
	held := make(map[edge]bool) // the mutator's view: edges it may use

	check := func(step int, what string) {
		t.Helper()
		compared += checkNewestBundles(t, e, held, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
	}

	for step := 0; step < 120; step++ {
		h := holders[rng.Intn(len(holders))]
		k := remotes[rng.Intn(len(remotes))]
		ek := edge{h, k}
		intro, introSeq := remotes[rng.Intn(len(remotes))], uint64(rng.Intn(40)+1)
		what := ""
		switch op := rng.Intn(20); {
		case op < 5:
			what = "edge up"
			if rng.Intn(3) == 0 {
				intro, introSeq = ids.NoCluster, 0
			}
			e.EdgeUp(h, k, !held[ek], intro, introSeq)
			held[ek] = e.procs[h] != nil
		case op < 9:
			what = "edge down"
			if held[ek] {
				e.EdgeDown(h, k)
				delete(held, ek)
			}
		case op < 12:
			what = "forward a held reference"
			if held[ek] {
				e.SentRef(h, k, remotes[rng.Intn(len(remotes))])
			}
		case op < 14:
			what = "forward an own reference"
			e.SentRef(h, h, k)
		case op < 16:
			what = "resolve an introduction"
			e.ResolveIntroduction(h, k, intro, introSeq)
		case op < 18:
			what = "ack"
			e.AckDestroys(k.Site, uint64(rng.Intn(int(fs.seqs[StreamDestroy])+2)))
		case op < 19:
			what = "refresh"
			e.Refresh()
		default:
			what = "collect a holder"
			if h != r1 && rng.Intn(4) == 0 {
				e.EdgeDown(r1, h)
			}
		}
		e.Drain()
		check(step, what)
	}
	return compared
}

// edge is one holder→target edge of the global root graph.
type edge [2]ids.ClusterID

// checkNewestBundles compares the newest outstanding bundle of every
// destroyed edge of a live holder (one held reports false for) with a
// rebuild from the holder's on-behalf row for the target, and reports
// how many it compared.
func checkNewestBundles(t *testing.T, e *Engine, held map[edge]bool, at string) (compared int) {
	t.Helper()
	newest := make(map[edge]uint64)
	bundles := make(map[edge]DestroyMsg)
	e.destroys.Each(func(_ ids.SiteID, d edgeMsg[DestroyMsg], seq uint64) {
		ed := edge{d.from, d.to}
		if seq > newest[ed] {
			newest[ed], bundles[ed] = seq, d.msg
		}
	})
	for ed, m := range bundles {
		p := e.procs[ed[0]]
		if p == nil || held[ed] {
			continue
		}
		ob := p.log.PeekOB(ed[1])
		if ob == nil {
			t.Fatalf("%s: edge %v row %d has no on-behalf row", at, ed, newest[ed])
		}
		if want := (DestroyMsg{Auth: ob.Auth, Hints: ob.Hints, Processed: ob.Processed}); !sameBundle(m, want) || !m.Auth.Get(ed[0]).Eps {
			t.Fatalf("%s: edge %v row %d retains %+v, its on-behalf row gives %+v", at, ed, newest[ed], m, want)
		}
		compared++
	}
	return compared
}
