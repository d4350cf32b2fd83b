package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"causalgc/internal/ids"
)

// scanModel is the specification the Ledger was derived from: one flat
// table and a full scan per question, as AckAsserts and
// ResetPeerBackoff were written before the ledger.
type scanModel struct {
	rows     map[int]*scanRow
	born     uint64
	keyOrder bool // walk by key (the assert journal)
}

type scanRow struct {
	key       int
	val       uint64
	peer      ids.SiteID
	seq, born uint64
	bo        damper
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

// walk is the re-send and export order: key order, else oldest first.
func (m *scanModel) walk() []*scanRow {
	rows := make([]*scanRow, 0, len(m.rows))
	for _, r := range m.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if m.keyOrder {
			return rows[i].key < rows[j].key
		}
		return rows[i].born < rows[j].born
	})
	return rows
}

func (m *scanModel) put(key int, peer ids.SiteID, seq, val uint64) {
	m.born++
	m.rows[key] = &scanRow{key: key, val: val, peer: peer, seq: seq, born: m.born}
}

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

func exportLedger(l *Ledger[int, uint64]) []exportedRow {
	var out []exportedRow
	l.Each(func(key int, val, seq uint64) { out = append(out, exportedRow{key, val, seq}) })
	return out
}

// TestLedgerMatchesScanModel runs one seeded random program against the
// ledger and against the scan model and demands they agree after every
// step: retired keys, due walks, exported rows.
func TestLedgerMatchesScanModel(t *testing.T) {
	for _, keyOrder := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("keyOrder=%v/seed=%d", keyOrder, seed), func(t *testing.T) {
				runLedgerProgram(t, keyOrder, seed)
			})
		}
	}
}

func runLedgerProgram(t *testing.T, keyOrder bool, seed int64) {
	const (
		keys  = 48
		peers = 4
	)
	rng := rand.New(rand.NewSource(seed))
	peerOf := func(key int) ids.SiteID { return ids.SiteID(key%peers + 1) }

	newLedger := func() *Ledger[int, uint64] {
		l := NewLedger[int, uint64]()
		if keyOrder {
			l.less = func(a, b int) bool { return a < b }
		}
		return l
	}
	l := newLedger()
	m := &scanModel{rows: make(map[int]*scanRow), keyOrder: keyOrder}

	// Sequences interleave across peers and are not always drawn in
	// order: a draw sometimes skips one ahead and a later draw fills it.
	next := make(map[ids.SiteID]uint64)
	skipped := make(map[ids.SiteID][]uint64)
	draw := func(peer ids.SiteID) uint64 {
		if pool := skipped[peer]; len(pool) > 0 && rng.Intn(3) == 0 {
			skipped[peer] = pool[1:]
			return pool[0]
		}
		next[peer]++
		if rng.Intn(4) == 0 {
			skipped[peer] = append(skipped[peer], next[peer])
			next[peer]++
		}
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
			l.Put(key, peerOf(key), seq, val)
			m.put(key, peerOf(key), seq, val)
		case op < 16:
			peer := ids.SiteID(rng.Intn(peers) + 1)
			watermark := uint64(rng.Intn(int(next[peer]) + 2))
			what = fmt.Sprintf("ack peer %d watermark %d", peer, watermark)
			before := exportLedger(l)
			n := l.Ack(peer, watermark)
			left := make(map[int]bool)
			l.Each(func(key int, _, _ uint64) { left[key] = true })
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
			sent, held := l.Due(round, func(key int, val, seq uint64) {
				got = append(got, key)
				if seq != m.rows[key].seq {
					t.Fatalf("step %d (%s): key %d re-sent under seq %d, put under %d", step, what, key, seq, m.rows[key].seq)
				}
			})
			if sent != len(want) || held != wantHeld || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s): sent %d %v held %d, model %v held %d", step, what, sent, got, held, want, wantHeld)
			}
		default:
			what = "export and restore"
			restored := newLedger()
			l.Each(func(key int, val, seq uint64) { restored.Put(key, peerOf(key), seq, val) })
			l = restored
			for i, r := range m.walk() { // as Restore does: retention re-numbered, dampers reset
				r.born, r.bo = uint64(i+1), damper{}
			}
			m.born = uint64(len(m.rows))
		}
		if got, want := exportLedger(l), m.export(); l.Len() != len(want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): rows\n ledger %v\n model  %v", step, what, got, want)
		}
	}
}

// TestAckedDestroyRowsLeaveTheLedger: an acknowledged destroyed-edge
// bundle is gone — Retained stops counting it, Refresh never re-ships
// it, no ack or re-arm walks it — and re-destroying a re-formed edge
// draws a fresh sequence.
func TestAckedDestroyRowsLeaveTheLedger(t *testing.T) {
	const edges = 20000
	e, fs, _ := newEngine(t, Options{})
	e.Register(r1)
	target := func(i int) ids.ClusterID { return ids.ClusterID{Site: 2, Seq: uint64(i + 1)} }
	for i := 0; i < edges; i++ {
		e.EdgeUp(r1, target(i), true, ids.NoCluster, ids.CreationSeq)
	}
	for i := 0; i < edges; i++ {
		e.EdgeDown(r1, target(i))
	}
	e.Drain()
	if got := e.destroys.Len(); got != edges {
		t.Fatalf("outstanding destroy rows = %d, want %d", got, edges)
	}
	last := fs.destroys[len(fs.destroys)-1].seq
	if n := e.AckDestroys(2, last); n != edges {
		t.Fatalf("AckDestroys retired %d, want %d", n, edges)
	}
	if got := e.Retained().DestroyRows; got != 0 {
		t.Errorf("Retained().DestroyRows after the ack = %d, want 0", got)
	}
	if got := e.destroys.Len(); got != 0 {
		t.Errorf("outstanding destroy rows after the ack = %d, want 0", got)
	}
	sent := len(fs.destroys)
	e.Refresh()
	if len(fs.destroys) != sent {
		t.Fatalf("acknowledged bundles re-shipped: %d frames", len(fs.destroys)-sent)
	}

	e.EdgeUp(r1, target(7), true, cB, 5)
	if got := e.Retained().DestroyRows; got != 0 {
		t.Errorf("DestroyRows after the edge re-formed = %d, want 0", got)
	}
	e.EdgeDown(r1, target(7))
	e.Drain()
	again := fs.destroys[len(fs.destroys)-1]
	if again.to != target(7) || again.seq <= last {
		t.Fatalf("re-destroyed edge shipped %+v, want a fresh sequence above %d", again, last)
	}
	if n := e.AckDestroys(2, last); n != 0 {
		t.Fatalf("the stale watermark retired the fresh bundle (%d rows)", n)
	}
	if got, want := e.destroys.Len(), 1; got != want {
		t.Errorf("outstanding destroy rows = %d, want %d", got, want)
	}
}
