package core

import (
	"fmt"
	"math/rand"
	"testing"

	"causalgc/internal/ids"
)

// TestRowsLeaveOnlyByAck: a retained row leaves its ledger only when a
// cumulative ack covers it, so no stream sequence is ever abandoned. A
// seeded engine program — edges formed, destroyed and re-formed,
// introductions resolved for live and for destroyed edges, holders
// removed, acks at random watermarks, refreshes — must keep, after
// every step and for each stream, the rows first sent equal to the rows
// acks retired plus the rows outstanding. And the newest bundle of each
// destroyed edge of a live holder is what a rebuild from the holder's
// on-behalf row gives: that row is frozen until the edge re-forms.
func TestRowsLeaveOnlyByAck(t *testing.T) {
	compared := 0
	for seed := int64(1); seed <= 200; seed++ {
		compared += runRetireProgram(t, seed)
	}
	if compared < 5000 {
		t.Fatalf("only %d bundles compared: the program no longer keeps destroyed edges outstanding", compared)
	}
}

func runRetireProgram(t *testing.T, seed int64) (compared int) {
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
	retired := make(map[Stream]int)
	ledgers := map[Stream]interface{ Len() int }{StreamAssert: e.asserts, StreamDestroy: e.destroys}

	check := func(step int, what string) {
		t.Helper()
		for s, l := range ledgers {
			if sent := int(fs.seqs[s]); sent != retired[s]+l.Len() {
				t.Fatalf("seed %d step %d (%s): stream %v sent %d rows, %d retired by ack and %d outstanding: %d left another way",
					seed, step, what, s, sent, retired[s], l.Len(), sent-retired[s]-l.Len())
			}
		}
		compared += checkNewestBundles(t, e, held, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
	}

	for step := 0; step < 150; step++ {
		h := holders[rng.Intn(len(holders))]
		k := remotes[rng.Intn(len(remotes))]
		ed := edge{h, k}
		intro, introSeq := remotes[rng.Intn(len(remotes))], uint64(rng.Intn(40)+1)
		what := ""
		switch op := rng.Intn(20); {
		case op < 6:
			what = "edge up"
			if rng.Intn(3) == 0 {
				intro, introSeq = ids.NoCluster, 0
			}
			e.EdgeUp(h, k, !held[ed], intro, introSeq)
			held[ed] = e.procs[h] != nil
		case op < 10:
			what = "edge down"
			if held[ed] {
				e.EdgeDown(h, k)
				delete(held, ed)
			}
		case op < 11:
			what = "forward a held reference"
			if held[ed] {
				e.SentRef(h, k, remotes[rng.Intn(len(remotes))])
			}
		case op < 13:
			what = "resolve an introduction"
			e.ResolveIntroduction(h, k, intro, introSeq)
		case op < 17:
			s := StreamAssert
			if rng.Intn(2) == 0 {
				s = StreamDestroy
			}
			what = "ack"
			retired[s] += e.Ack(k.Site, s, uint64(rng.Intn(int(fs.seqs[s])+2)))
		case op < 19:
			what = "refresh"
			e.Refresh()
		default:
			what = "collect a holder"
			if h != r1 && rng.Intn(3) == 0 {
				e.EdgeDown(r1, h)
				for ed := range held {
					if ed[0] == h {
						delete(held, ed)
					}
				}
			}
		}
		e.Drain()
		check(step, what)
	}
	return compared
}
