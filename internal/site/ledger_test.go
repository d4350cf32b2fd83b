package site

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
)

// scanModel is the specification the ledger was derived from: one flat
// table and a full scan per question.
type scanModel struct {
	rows map[int]*scanRow
	// peers is the first-put order of the peers: a peer stays once put,
	// and a restore keeps the ones with rows, in order.
	peers []ids.SiteID
}

type scanRow struct {
	key  int
	val  uint64
	peer ids.SiteID
	seq  uint64
	bo   damper
}

func (m *scanModel) ack(peer ids.SiteID, watermark uint64) (retired []int) {
	for k, r := range m.rows {
		if r.peer == peer && r.seq <= watermark {
			delete(m.rows, k)
			retired = append(retired, k)
		}
	}
	sort.Ints(retired)
	return retired
}

func (m *scanModel) resetPeer(peer ids.SiteID) {
	for _, r := range m.rows {
		if r.peer == peer {
			r.bo = damper{}
		}
	}
}

// rank is the position of peer in first-put order.
func (m *scanModel) rank(peer ids.SiteID) int {
	for i, p := range m.peers {
		if p == peer {
			return i
		}
	}
	panic(fmt.Sprintf("peer %v never put", peer))
}

// walk is the re-send and export order: peers in first-put order, each
// peer's rows by sequence.
func (m *scanModel) walk() []*scanRow {
	rows := make([]*scanRow, 0, len(m.rows))
	for _, r := range m.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if a, b := m.rank(rows[i].peer), m.rank(rows[j].peer); a != b {
			return a < b
		}
		return rows[i].seq < rows[j].seq
	})
	return rows
}

func (m *scanModel) put(key int, peer ids.SiteID, seq, val uint64) {
	if !containsPeer(m.peers, peer) {
		m.peers = append(m.peers, peer)
	}
	m.rows[key] = &scanRow{key: key, val: val, peer: peer, seq: seq}
}

func containsPeer(peers []ids.SiteID, peer ids.SiteID) bool {
	for _, p := range peers {
		if p == peer {
			return true
		}
	}
	return false
}

// keyed is the frame of the test program: the model's key rides in the
// row, since the ledger has none.
type keyed struct {
	key int
	val uint64
}

func (keyed) Kind() string    { return "keyed" }
func (keyed) ApproxSize() int { return 0 }

type exportedRow struct {
	key      int
	val, seq uint64
}

func (m *scanModel) export() []exportedRow {
	var out []exportedRow
	for _, r := range m.walk() {
		out = append(out, exportedRow{r.key, r.val, r.seq})
	}
	return out
}

func exportLedger(l *ledger) []exportedRow {
	var out []exportedRow
	l.Each(func(_ ids.SiteID, p netsim.Payload, seq uint64) {
		k := p.(keyed)
		out = append(out, exportedRow{k.key, k.val, seq})
	})
	return out
}

// TestLedgerMatchesScanModel runs one seeded random program against the
// ledger and against the scan model and demands they agree after every
// step: retired keys, due walks, exported rows. The program draws each
// peer's sequences ascending, with gaps (a sibling shard draws from the
// same counter), as Put requires.
func TestLedgerMatchesScanModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runLedgerProgram(t, seed)
		})
	}
}

func runLedgerProgram(t *testing.T, seed int64) {
	const (
		keys  = 48
		peers = 4
	)
	rng := rand.New(rand.NewSource(seed))
	peerOf := func(key int) ids.SiteID { return ids.SiteID(key%peers + 1) }

	l := &ledger{}
	m := &scanModel{rows: make(map[int]*scanRow)}
	next := make(map[ids.SiteID]uint64)
	draw := func(peer ids.SiteID) uint64 {
		next[peer] += uint64(1 + rng.Intn(2))
		return next[peer]
	}
	round := uint64(0)

	for step := 0; step < 4000; step++ {
		what := ""
		switch op := rng.Intn(20); {
		case op < 10: // put a key not retained now
			key, val := rng.Intn(keys), uint64(rng.Intn(3))
			if m.rows[key] != nil {
				continue
			}
			seq := draw(peerOf(key))
			what = fmt.Sprintf("put key %d seq %d val %d", key, seq, val)
			l.Put(peerOf(key), seq, keyed{key, val})
			m.put(key, peerOf(key), seq, val)
		case op < 16:
			peer := ids.SiteID(rng.Intn(peers) + 1)
			watermark := uint64(rng.Intn(int(next[peer]) + 2))
			what = fmt.Sprintf("ack peer %d watermark %d", peer, watermark)
			before := exportLedger(l)
			n := l.Ack(peer, watermark)
			left := make(map[int]bool)
			for _, r := range exportLedger(l) {
				left[r.key] = true
			}
			var retired []int
			for _, r := range before {
				if !left[r.key] {
					retired = append(retired, r.key)
				}
			}
			sort.Ints(retired)
			if want := m.ack(peer, watermark); n != len(want) || !reflect.DeepEqual(retired, want) {
				t.Fatalf("step %d (%s): retired %d %v, model %v", step, what, n, retired, want)
			}
		case op < 17:
			peer := ids.SiteID(rng.Intn(peers) + 1)
			what = fmt.Sprintf("reset peer %d", peer)
			l.ResetPeer(peer)
			m.resetPeer(peer)
		case op < 19:
			round++
			what = fmt.Sprintf("due walk at round %d", round)
			var want []int
			wantHeld := 0
			for _, r := range m.walk() {
				if !r.bo.ready(round) {
					wantHeld++
					continue
				}
				want = append(want, r.key)
				r.bo.bump(round)
			}
			var got []int
			sent, held := l.Due(func(peer ids.SiteID, p netsim.Payload) {
				k := p.(keyed)
				got = append(got, k.key)
				if r := m.rows[k.key]; peer != r.peer {
					t.Fatalf("step %d (%s): key %d re-sent to %v, put to %v", step, what, k.key, peer, r.peer)
				}
			})
			if sent != len(want) || held != wantHeld || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s): sent %d %v held %d, model %v held %d", step, what, sent, got, held, want, wantHeld)
			}
		default:
			what = "export and restore"
			restored := &ledger{}
			l.Each(func(peer ids.SiteID, p netsim.Payload, seq uint64) { restored.Put(peer, seq, p) })
			l = restored
			var kept []ids.SiteID // as restore does: peers with rows stay, dampers reset
			for _, r := range m.walk() {
				r.bo = damper{}
				if !containsPeer(kept, r.peer) {
					kept = append(kept, r.peer)
				}
			}
			m.peers = kept
			round = 0 // a restored ledger's walks start over
		}
		if got, want := exportLedger(l), m.export(); l.Len() != len(want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): rows\n ledger %v\n model  %v", step, what, got, want)
		}
	}
}

// TestLedgerWalksInSendOrder pins the re-send order of a refresh round:
// the due destroys, then the due asserts, then the due mutator frames,
// each ledger's peers in first-contact order and each peer's frames by
// sequence. The frames are first sent with their peers interleaved, so
// a walk in first-send order would re-send them the other way round.
func TestLedgerWalksInSendOrder(t *testing.T) {
	g := newEngineRig(t)
	name := func(p netsim.Payload) string {
		switch f := p.(type) {
		case wire.Destroy:
			return fmt.Sprintf("destroy %v seq %d", f.To, f.Seq)
		case wire.Assert:
			return fmt.Sprintf("assert %v seq %d", f.To, f.Seq)
		case wire.Create:
			return fmt.Sprintf("create %v seq %d", f.Cluster, f.Seq)
		}
		return fmt.Sprintf("%T", p)
	}
	g.do(func(e *core.Engine) {
		for _, k := range []ids.ClusterID{{Site: 3, Seq: 9}, {Site: 2, Seq: 9}, {Site: 3, Seq: 8}} {
			e.EdgeUp(g.r1, k, true, ids.NoCluster, ids.CreationSeq)
			e.EdgeDown(g.r1, k)
		}
		for _, k := range []ids.ClusterID{{Site: 2, Seq: 5}, {Site: 3, Seq: 5}, {Site: 2, Seq: 1}} {
			e.ResolveIntroduction(g.r1, k, hB, 1)
		}
	})
	// A mutator frame, retained as a durable shard's outbox would.
	g.r.mu.Lock()
	g.r.ledger(core.StreamMut).Put(2, 1, wire.Create{Cluster: ids.ClusterID{Site: 2, Seq: 7}, Seq: 1})
	g.r.mu.Unlock()
	var first []string
	for _, p := range g.net.sent {
		first = append(first, name(p))
	}
	if want := []string{
		"destroy s3/c9 seq 1", "destroy s2/c9 seq 1", "destroy s3/c8 seq 2",
		"assert s2/c5 seq 1", "assert s3/c5 seq 1", "assert s2/c1 seq 2",
	}; !reflect.DeepEqual(first, want) {
		t.Fatalf("first sends %q, want %q", first, want)
	}
	g.net.sent = nil
	g.refresh()
	var got []string
	for _, p := range g.net.sent {
		if _, prop := p.(wire.Propagate); !prop {
			got = append(got, name(p))
		}
	}
	if want := []string{
		"destroy s3/c9 seq 1", "destroy s3/c8 seq 2", "destroy s2/c9 seq 1",
		"assert s2/c5 seq 1", "assert s2/c1 seq 2", "assert s3/c5 seq 1",
		"create s2/c7 seq 1",
	}; !reflect.DeepEqual(got, want) {
		t.Fatalf("refresh re-sent %q, want %q", got, want)
	}
}

// TestLedgerDueAllocs: a due walk and an export walk over 10 000
// outstanding rows allocate nothing — no copy, no sort.
func TestLedgerDueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	l := &ledger{}
	for i := 0; i < 10000; i++ {
		seq := uint64(i/4 + 1)
		l.Put(ids.SiteID(i%4+1), seq, wire.Assert{M: core.AssertMsg{Stamp: seq}, Seq: seq})
	}
	n := 0
	if got := testing.AllocsPerRun(10, func() { l.Due(func(ids.SiteID, netsim.Payload) { n++ }) }); got != 0 {
		t.Errorf("one Due walk over %d rows allocates %.0f times, want 0", l.Len(), got)
	}
	if got := testing.AllocsPerRun(10, func() { l.Each(func(ids.SiteID, netsim.Payload, uint64) { n++ }) }); got != 0 {
		t.Errorf("one Each walk over %d rows allocates %.0f times, want 0", l.Len(), got)
	}
	if n == 0 {
		t.Fatal("the walks visited no row")
	}
}
