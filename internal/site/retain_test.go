package site

import (
	"fmt"
	"math/rand"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/vclock"
	"causalgc/internal/wire"
)

// tapNet is a network that records every frame a site sends, an
// envelope's frames one by one, and delivers none of them.
type tapNet struct {
	stats *netsim.Stats
	sent  []netsim.Payload
}

func newTapNet() *tapNet { return &tapNet{stats: netsim.NewStats()} }

func (n *tapNet) Register(ids.SiteID, netsim.Handler) {}
func (n *tapNet) Stats() *netsim.Stats                { return n.stats }

func (n *tapNet) Send(_, _ ids.SiteID, p netsim.Payload) {
	if env, ok := p.(wire.Envelope); ok {
		n.sent = append(n.sent, env.Frames...)
		return
	}
	n.sent = append(n.sent, p)
}

// asserts returns the edge-asserts sent so far, in send order.
func (n *tapNet) asserts() []wire.Assert { return framesOf[wire.Assert](n.sent) }

// destroys returns the edge-destruction bundles sent so far.
func (n *tapNet) destroys() []wire.Destroy { return framesOf[wire.Destroy](n.sent) }

func framesOf[F netsim.Payload](sent []netsim.Payload) []F {
	var out []F
	for _, p := range sent {
		if f, ok := p.(F); ok {
			out = append(out, f)
		}
	}
	return out
}

// The clusters the retention tests' engine programs name: two of site
// 1's besides its root, and a remote one on site 2.
var (
	hA  = ids.ClusterID{Site: 1, Seq: 2}
	hB  = ids.ClusterID{Site: 1, Seq: 3}
	rem = ids.ClusterID{Site: 2, Seq: 1}
)

// engineRig is a volatile one-shard site 1 on a tapNet whose engine a
// test drives directly, under the shard lock, the way the site's own
// entry points drive it: what the engine sends goes through the shard's
// sender into the ledgers, and acks and refreshes arrive through the
// site.
type engineRig struct {
	t   *testing.T
	s   *Site
	r   *shard
	net *tapNet
	r1  ids.ClusterID // the site's root cluster
}

func newEngineRig(t *testing.T) *engineRig {
	t.Helper()
	net := newTapNet()
	s := New(1, net, DefaultOptions())
	return &engineRig{t: t, s: s, r: s.shards[0], net: net, r1: s.Root().Cluster}
}

// do runs f on the engine under the shard lock and drains it.
func (g *engineRig) do(f func(e *core.Engine)) {
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	f(g.r.engine)
	g.r.engine.Drain()
}

// keep registers the clusters and gives each an edge from the root, so
// no refresh removes them.
func (g *engineRig) keep(cls ...ids.ClusterID) {
	g.do(func(e *core.Engine) {
		for _, cl := range cls {
			e.Register(cl)
			e.EdgeUp(g.r1, cl, true, ids.NoCluster, 0)
		}
	})
}

func (g *engineRig) refresh() {
	g.t.Helper()
	if err := g.s.Refresh(); err != nil {
		g.t.Fatal(err)
	}
}

// ack delivers peer's cumulative acknowledgement of stream s.
func (g *engineRig) ack(peer ids.SiteID, s core.Stream, watermark uint64) {
	g.s.handleNet(peer, wire.FrameAck{Stream: s, Seq: watermark})
}

// rows is the number of rows the shard retains in stream s.
func (g *engineRig) rows(s core.Stream) int {
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	return g.r.ledger(s).Len()
}

func sameBundle(a, b core.DestroyMsg) bool {
	return a.Auth.Equal(b.Auth) && a.Hints.Equal(b.Hints) && a.Processed.Equal(b.Processed)
}

func TestAssertRetainedAndResentUntilAck(t *testing.T) {
	g := newEngineRig(t)
	g.keep(hA)
	intro := ids.ClusterID{Site: 3, Seq: 9}
	g.do(func(e *core.Engine) { e.EdgeUp(hA, rem, true, intro, 7) })
	if got := g.net.asserts(); len(got) != 1 {
		t.Fatalf("asserts = %+v, want 1", got)
	}
	first := g.net.asserts()[0]
	// The assert was lost: every refresh round re-ships it verbatim.
	for i := 0; i < 2; i++ {
		g.refresh()
		sent := g.net.asserts()
		if len(sent) != 2+i {
			t.Fatalf("after refresh %d: asserts = %d, want %d", i+1, len(sent), 2+i)
		}
		if re := sent[len(sent)-1]; re != first {
			t.Fatalf("re-sent assert %+v != original %+v", re, first)
		}
	}
	if got := g.s.EngineStats().AssertResends; got != 2 {
		t.Errorf("AssertResends = %d, want 2", got)
	}
	// The owner site's cumulative ack retires the row: no further
	// re-sends.
	g.ack(rem.Site, core.StreamAssert, first.Seq)
	if got := g.rows(core.StreamAssert); got != 0 {
		t.Fatalf("%d assert rows after the ack, want 0", got)
	}
	n := len(g.net.asserts())
	g.refresh()
	if sent := g.net.asserts(); len(sent) != n {
		t.Fatalf("re-sent after ack: %+v", sent[n:])
	}
}

// TestAssertRetainedPastEdgeDestruction: an edge's destruction does not
// retire its assert row. The row stays, is re-sent under its own
// sequence (the Ē that followed dominates its stamp at the owner), and
// leaves only when the owner's site acknowledges it.
func TestAssertRetainedPastEdgeDestruction(t *testing.T) {
	g := newEngineRig(t)
	g.keep(hA)
	g.do(func(e *core.Engine) {
		e.EdgeUp(hA, rem, true, hB, 3)
		e.EdgeDown(hA, rem)
	})
	if got := g.net.asserts(); len(got) != 1 {
		t.Fatalf("asserts = %+v, want 1", got)
	}
	first := g.net.asserts()[0]
	g.refresh()
	if got := g.net.asserts(); len(got) != 2 || got[1] != first {
		t.Fatalf("asserts after refresh = %+v, want %+v re-sent once", got, first)
	}
	if got := g.rows(core.StreamAssert); got != 1 {
		t.Fatalf("assert rows = %d after the edge's destruction, want 1", got)
	}
	g.ack(rem.Site, core.StreamAssert, first.Seq)
	n := len(g.net.asserts())
	for i := 0; i < 4; i++ {
		g.refresh()
	}
	if got := g.net.asserts(); len(got) != n {
		t.Fatalf("acknowledged assert re-sent: %+v", got[n:])
	}
}

// TestNegativeAssertRetainedThroughEdgeLifecycle: a negative assert —
// a dead introduction expired while the holder has no edge to the
// target — is retained like any other. It survives the holder later
// forming and destroying a genuine edge to the target, is re-sent, and
// leaves only on its ack.
func TestNegativeAssertRetainedThroughEdgeLifecycle(t *testing.T) {
	g := newEngineRig(t)
	g.keep(hA)
	g.do(func(e *core.Engine) { e.ResolveIntroduction(hA, rem, hB, 4) })
	neg := g.net.asserts()
	if len(neg) != 1 || neg[0].M.Stamp != 0 {
		t.Fatalf("asserts = %+v, want one negative", neg)
	}
	g.do(func(e *core.Engine) {
		e.EdgeUp(hA, rem, true, hB, 9)
		e.EdgeDown(hA, rem)
	})
	from := len(g.net.asserts())
	g.refresh()
	found := false
	for _, a := range g.net.asserts()[from:] {
		if a == neg[0] {
			found = true
		}
	}
	if !found {
		t.Fatalf("negative assert not re-sent after the edge lifecycle: %+v", g.net.asserts()[from:])
	}
	g.ack(rem.Site, core.StreamAssert, neg[0].Seq)
	from = len(g.net.asserts())
	for i := 0; i < 4; i++ {
		g.refresh()
	}
	for _, a := range g.net.asserts()[from:] {
		if a == neg[0] {
			t.Fatalf("negative assert re-sent after its ack")
		}
	}
}

// TestAssertLedgerRetainsEveryRow: the assert ledger has no cap — every
// sent assert stays until the owner's site acknowledges it.
func TestAssertLedgerRetainsEveryRow(t *testing.T) {
	g := newEngineRig(t)
	g.keep(hA)
	g.do(func(e *core.Engine) {
		for i := uint64(1); i <= 5000; i++ {
			e.ResolveIntroduction(hA, rem, hB, i)
		}
	})
	if got := g.rows(core.StreamAssert); got != 5000 {
		t.Fatalf("the ledger holds %d rows, want all 5000", got)
	}
}

// TestFinalisationBundleRetainedAndResent: a removed holder's
// finalisation bundle was lost; the process is gone, but the retained
// frame re-ships on refresh.
func TestFinalisationBundleRetainedAndResent(t *testing.T) {
	g := newEngineRig(t)
	g.do(func(e *core.Engine) {
		e.Register(hA)
		e.EdgeUp(hA, rem, true, ids.NoCluster, 0)
		e.HandleDestroyFrame(hA, g.r1, core.DestroyMsg{Auth: vclock.Vector{g.r1: vclock.Eps(1)}}, 0, false)
	})
	if d := g.net.destroys(); len(d) != 1 || d[0].To != rem {
		t.Fatalf("destroys = %+v", d)
	}
	g.refresh()
	d := g.net.destroys()
	if len(d) != 2 {
		t.Fatalf("final bundle not re-sent: %+v", d)
	}
	if d[1].From != hA || d[1].To != rem || !d[1].M.Auth.Get(hA).Eps || d[1].Seq != d[0].Seq {
		t.Errorf("re-sent bundle = %+v", d[1])
	}
}

func TestAckRetiresAssertsCumulatively(t *testing.T) {
	g := newEngineRig(t)
	g.keep(hA)
	intro := ids.ClusterID{Site: 3, Seq: 9}
	rem2 := ids.ClusterID{Site: 2, Seq: 4}
	g.do(func(e *core.Engine) {
		e.EdgeUp(hA, rem, true, intro, 7)  // assert stream seq 1
		e.EdgeUp(hA, rem2, true, intro, 8) // assert stream seq 2
	})
	if got := g.net.asserts(); len(got) != 2 {
		t.Fatalf("asserts = %+v, want 2", got)
	}
	// The peer site's cumulative watermark 2 retires both rows at once.
	g.ack(2, core.StreamAssert, 2)
	if got := g.rows(core.StreamAssert); got != 0 {
		t.Fatalf("%d assert rows after watermark 2, want 0", got)
	}
	g.refresh()
	st := g.s.EngineStats()
	if st.AssertResends != 0 {
		t.Errorf("AssertResends after full ack = %d, want 0", st.AssertResends)
	}
	if st.RowsRetired != 2 {
		t.Errorf("RowsRetired = %d, want 2", st.RowsRetired)
	}
}

func TestAckedBundleNeverResent(t *testing.T) {
	g := newEngineRig(t)
	g.keep(hA)
	g.do(func(e *core.Engine) {
		e.EdgeUp(hA, rem, true, ids.NoCluster, 0)
		e.EdgeDown(hA, rem)
	})
	d := g.net.destroys()
	if len(d) != 1 || d[0].Seq == 0 {
		t.Fatalf("destroys = %+v, want one tracked bundle", d)
	}
	seq := d[0].Seq
	// Unacknowledged: the first refresh re-ships the Ē bundle.
	g.refresh()
	st := g.s.EngineStats()
	if st.DestroyResends != 1 {
		t.Fatalf("DestroyResends = %d, want 1", st.DestroyResends)
	}
	if st.DestroysSent != 2 {
		t.Errorf("DestroysSent = %d, want the first send and the re-send", st.DestroysSent)
	}
	if re := g.net.destroys()[1]; re.Seq != seq {
		t.Fatalf("re-send changed the stream seq: %d -> %d (would open a receiver gap)", seq, re.Seq)
	}
	// The target site acknowledges: no further re-sends, ever.
	g.ack(rem.Site, core.StreamDestroy, seq)
	n := len(g.net.destroys())
	for i := 0; i < 4; i++ {
		g.refresh()
	}
	if got := g.net.destroys(); len(got) != n {
		t.Fatalf("acked bundle re-sent: %+v", got[n:])
	}
}

// TestStaleAckRetiresOnlyTheOlderBundle: an edge destroyed, re-formed
// and destroyed again holds a row per destruction, and an ack of the
// first frame retires exactly the first row.
func TestStaleAckRetiresOnlyTheOlderBundle(t *testing.T) {
	g := newEngineRig(t)
	g.keep(hA)
	g.do(func(e *core.Engine) {
		e.EdgeUp(hA, rem, true, ids.NoCluster, 0)
		e.EdgeDown(hA, rem)
	})
	firstSeq := g.net.destroys()[0].Seq
	g.do(func(e *core.Engine) {
		e.EdgeUp(hA, rem, true, hB, 5)
		e.EdgeDown(hA, rem)
	})
	d := g.net.destroys()
	second := d[len(d)-1]
	if second.Seq == firstSeq {
		t.Fatalf("re-destroyed edge reused stream seq %d", firstSeq)
	}
	if got := g.rows(core.StreamDestroy); got != 2 {
		t.Fatalf("destroy rows = %d, want both destructions retained", got)
	}
	g.ack(rem.Site, core.StreamDestroy, firstSeq)
	if got := g.rows(core.StreamDestroy); got != 1 {
		t.Fatalf("the stale watermark left %d rows, want the fresh one", got)
	}
	n := len(g.net.destroys())
	g.refresh()
	if got := g.s.EngineStats().DestroyResends; got != 1 {
		t.Errorf("fresh Ē bundle not re-sent after stale ack: resends = %d", got)
	}
	if re := g.net.destroys()[n:]; len(re) != 1 || re[0].Seq != second.Seq || !sameBundle(re[0].M, second.M) {
		t.Errorf("refresh re-sent %+v, want the fresh bundle %+v", re, second)
	}
}

// TestAckRetiresFinalisationBundle: a removed process's finalisation
// bundle is a destroy-ledger row in the destroy stream, and the target
// site's ack on that stream retires it.
func TestAckRetiresFinalisationBundle(t *testing.T) {
	g := newEngineRig(t)
	g.do(func(e *core.Engine) {
		e.Register(hA)
		e.EdgeUp(hA, rem, true, ids.NoCluster, 0)
		e.HandleDestroyFrame(hA, g.r1, core.DestroyMsg{Auth: vclock.Vector{g.r1: vclock.Eps(1)}}, 0, false)
	})
	d := g.net.destroys()
	if len(d) != 1 || d[0].From != hA || d[0].To != rem {
		t.Fatalf("destroys = %+v, want hA's one finalisation bundle", d)
	}
	if got := g.rows(core.StreamDestroy); got != 1 {
		t.Fatalf("destroy rows = %d, want the finalisation bundle", got)
	}
	g.ack(rem.Site, core.StreamDestroy, d[0].Seq)
	g.refresh()
	if got := g.s.EngineStats().DestroyResends; got != 0 {
		t.Errorf("acked finalisation bundle re-sent: DestroyResends = %d", got)
	}
}

func TestLedgerDamperBacksOff(t *testing.T) {
	g := newEngineRig(t)
	g.keep(hA)
	g.do(func(e *core.Engine) { e.EdgeUp(hA, rem, true, hB, 7) }) // never acked
	var sentAt []int
	for round := 1; round <= 16; round++ {
		n := len(g.net.asserts())
		g.refresh()
		if len(g.net.asserts()) > n {
			sentAt = append(sentAt, round)
		}
	}
	// Exponential schedule: rounds 1, 2, 4, 8, 16.
	if want := []int{1, 2, 4, 8, 16}; fmt.Sprint(sentAt) != fmt.Sprint(want) {
		t.Fatalf("re-sends at rounds %v, want %v", sentAt, want)
	}
	if got := g.s.EngineStats().ResendsSuppressed; got != 16-5 {
		t.Errorf("ResendsSuppressed = %d, want %d", got, 16-5)
	}
}

// TestLedgerPeerRestartReArms: an ack carrying a new recovery epoch is
// a restart, and the next refresh round re-sends every row bound for
// the restarted peer at once, whatever its damper said.
func TestLedgerPeerRestartReArms(t *testing.T) {
	g := newEngineRig(t)
	g.keep(hA)
	g.do(func(e *core.Engine) { e.EdgeUp(hA, rem, true, hB, 7) })
	g.s.handleNet(rem.Site, wire.FrameAck{Stream: core.StreamMut}) // first contact, epoch 0
	g.refresh()                                                    // round 1: re-send, next due round 2
	g.refresh()                                                    // round 2: re-send, next due round 4
	n := len(g.net.asserts())
	g.s.handleNet(rem.Site, wire.FrameAck{Stream: core.StreamMut, Epoch: 1})
	g.refresh()
	if len(g.net.asserts()) != n+1 {
		t.Errorf("the peer's restart did not re-arm the damper: no re-send on round 3")
	}
}

// TestDestroyBundleOutlivesItsHolder: the Ē bundle of an edge destroyed
// before its holder was collected is nobody else's to re-ship, so the
// retained frame survives the removal, a refresh re-ships it under the
// same stream sequence, and only the target site's ack retires it.
func TestDestroyBundleOutlivesItsHolder(t *testing.T) {
	g := newEngineRig(t)
	g.keep(hA)
	g.do(func(e *core.Engine) {
		e.EdgeUp(hA, rem, true, hB, 5)
		e.SentRef(hA, rem, ids.ClusterID{Site: 3, Seq: 1})
		e.EdgeDown(hA, rem)
	})
	if d := g.net.destroys(); len(d) != 1 {
		t.Fatalf("destroys = %+v, want the one Ē bundle", d)
	}
	first := g.net.destroys()[0]

	g.do(func(e *core.Engine) { e.EdgeDown(g.r1, hA) })
	if !g.s.ClusterRemoved(hA) {
		t.Fatal("the holder was not removed")
	}
	if d := g.net.destroys(); len(d) != 1 {
		t.Fatalf("destroys = %+v: the holder had no live remote edge to finalise", d)
	}
	if got := g.rows(core.StreamDestroy); got != 1 {
		t.Fatalf("destroy rows after the holder's removal = %d, want 1", got)
	}

	// The image carries the frame although the holder is a tombstone: a
	// restored shard re-ships the same frame.
	g.r.mu.Lock()
	ss, err := g.r.exportShardStateLocked()
	g.r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var bundles []wire.FrameImage
	for _, f := range ss.Retained {
		if _, ok := f.Payload.(wire.Destroy); ok {
			bundles = append(bundles, f)
		}
	}
	if len(bundles) != 1 || bundles[0].To != rem.Site || bundles[0].Seq != first.Seq {
		t.Fatalf("exported %+v, want the bundle %+v", bundles, first)
	}
	net2 := newTapNet()
	s2 := newSite(1, net2, DefaultOptions(), 1)
	if err := s2.shards[0].restore(ss); err != nil {
		t.Fatal(err)
	}
	if err := s2.Refresh(); err != nil {
		t.Fatal(err)
	}
	if d := net2.destroys(); len(d) != 1 || d[0].Seq != first.Seq || !sameBundle(d[0].M, first.M) {
		t.Fatalf("restored shard re-shipped %+v, want %+v", d, first)
	}

	g.refresh()
	d := g.net.destroys()
	if len(d) != 2 {
		t.Fatalf("refresh shipped %d bundles, want 1", len(d)-1)
	}
	if re := d[1]; re.From != hA || re.To != rem || re.Seq != first.Seq || !sameBundle(re.M, first.M) {
		t.Fatalf("re-sent %+v, want %+v again", re, first)
	}
	if got := g.s.EngineStats().DestroyResends; got != 1 {
		t.Errorf("DestroyResends = %d, want 1", got)
	}

	g.ack(rem.Site, core.StreamDestroy, first.Seq)
	if got := g.rows(core.StreamDestroy); got != 0 {
		t.Errorf("destroy rows after the ack = %d, want 0", got)
	}
	for i := 0; i < 4; i++ {
		g.refresh()
	}
	if d := g.net.destroys(); len(d) != 2 {
		t.Fatalf("acknowledged bundle re-shipped: %+v", d[2:])
	}
}

// TestAckedDestroyRowsLeaveTheLedger: an acknowledged destroyed-edge
// bundle is gone — the depth gauge stops counting it, a refresh never
// re-ships it, no ack or re-arm walks it — and re-destroying a
// re-formed edge draws a fresh sequence.
func TestAckedDestroyRowsLeaveTheLedger(t *testing.T) {
	const edges = 20000
	g := newEngineRig(t)
	target := func(i int) ids.ClusterID { return ids.ClusterID{Site: 2, Seq: uint64(i + 1)} }
	g.do(func(e *core.Engine) {
		for i := 0; i < edges; i++ {
			e.EdgeUp(g.r1, target(i), true, ids.NoCluster, ids.CreationSeq)
		}
		for i := 0; i < edges; i++ {
			e.EdgeDown(g.r1, target(i))
		}
	})
	if got := g.rows(core.StreamDestroy); got != edges {
		t.Fatalf("outstanding destroy rows = %d, want %d", got, edges)
	}
	d := g.net.destroys()
	last := d[len(d)-1].Seq
	g.ack(2, core.StreamDestroy, last)
	if got := g.s.Depths().DestroyRows; got != 0 {
		t.Errorf("Depths().DestroyRows after the ack = %d, want 0", got)
	}
	if got := g.s.EngineStats().RowsRetired; got != edges {
		t.Errorf("RowsRetired = %d, want %d", got, edges)
	}
	sent := len(g.net.destroys())
	g.refresh()
	if got := len(g.net.destroys()); got != sent {
		t.Fatalf("acknowledged bundles re-shipped: %d frames", got-sent)
	}

	g.do(func(e *core.Engine) { e.EdgeUp(g.r1, target(7), true, hB, 5) })
	if got := g.rows(core.StreamDestroy); got != 0 {
		t.Errorf("destroy rows after the edge re-formed = %d, want 0", got)
	}
	g.do(func(e *core.Engine) { e.EdgeDown(g.r1, target(7)) })
	d = g.net.destroys()
	again := d[len(d)-1]
	if again.To != target(7) || again.Seq <= last {
		t.Fatalf("re-destroyed edge shipped %+v, want a fresh sequence above %d", again, last)
	}
	g.ack(2, core.StreamDestroy, last)
	if got := g.rows(core.StreamDestroy); got != 1 {
		t.Errorf("the stale watermark left %d destroy rows, want the fresh one", got)
	}
}

// edge is one holder→target edge of the global root graph.
type edge [2]ids.ClusterID

// sentSeqs is the number of sequences site 1 drew in stream s, toward
// every peer.
func sentSeqs(s *Site, kind core.Stream) int {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	n := 0
	for k, last := range s.st.send {
		if k.kind == kind {
			n += int(last)
		}
	}
	return n
}

// checkNewestBundles compares the newest retained bundle of every
// destroyed edge of a live holder (one held reports false for) with a
// rebuild from the holder's on-behalf row for the target, and reports
// how many it compared.
func checkNewestBundles(t *testing.T, g *engineRig, held map[edge]bool, at string) (compared int) {
	t.Helper()
	newest := make(map[edge]wire.Destroy)
	g.r.mu.Lock()
	g.r.ledger(core.StreamDestroy).Each(func(_ ids.SiteID, p netsim.Payload, seq uint64) {
		d := p.(wire.Destroy)
		if ed := (edge{d.From, d.To}); seq > newest[ed].Seq {
			newest[ed] = d
		}
	})
	logs := make(map[ids.ClusterID]*vclock.Log)
	for ed := range newest {
		if _, ok := logs[ed[0]]; !ok {
			logs[ed[0]] = g.r.engine.LogSnapshot(ed[0])
		}
	}
	g.r.mu.Unlock()
	for ed, d := range newest {
		l := logs[ed[0]]
		if l == nil || held[ed] {
			continue
		}
		ob := l.PeekOB(ed[1])
		if ob == nil {
			t.Fatalf("%s: edge %v row %d has no on-behalf row", at, ed, d.Seq)
		}
		if want := (core.DestroyMsg{Auth: ob.Auth, Hints: ob.Hints, Processed: ob.Processed}); !sameBundle(d.M, want) || !d.M.Auth.Get(ed[0]).Eps {
			t.Fatalf("%s: edge %v row %d retains %+v, its on-behalf row gives %+v", at, ed, d.Seq, d.M, want)
		}
		compared++
	}
	return compared
}

// retainProgram is a seeded engine program on an engineRig: edges
// formed, destroyed and re-formed over three holders and six remote
// targets on two sites, forwardings, introductions resolved for live
// and for destroyed edges, acks at random watermarks, refreshes, the
// odd holder collected. weights gives the share of each step kind out
// of 20, in the order above (forwardings of held and of own
// references); check runs after every step.
type retainProgram struct {
	steps   int
	weights [8]int
	check   func(step int, what string)
	acked   func(kind core.Stream, retired int)
}

func (p retainProgram) run(t *testing.T, g *engineRig, seed int64, held map[edge]bool) {
	rng := rand.New(rand.NewSource(seed))
	holders := []ids.ClusterID{g.r1, hA, hB}
	var remotes []ids.ClusterID
	for site := ids.SiteID(2); site <= 3; site++ {
		for seq := uint64(1); seq <= 3; seq++ {
			remotes = append(remotes, ids.ClusterID{Site: site, Seq: seq})
		}
	}
	g.keep(hA, hB)
	for step := 0; step < p.steps; step++ {
		h := holders[rng.Intn(len(holders))]
		k := remotes[rng.Intn(len(remotes))]
		ed := edge{h, k}
		intro, introSeq := remotes[rng.Intn(len(remotes))], uint64(rng.Intn(40)+1)
		what := ""
		op, kind := rng.Intn(20), 0
		for kind < len(p.weights)-1 && op >= p.weights[kind] {
			op -= p.weights[kind]
			kind++
		}
		switch kind {
		case 0:
			what = "edge up"
			if rng.Intn(3) == 0 {
				intro, introSeq = ids.NoCluster, 0
			}
			g.do(func(e *core.Engine) {
				e.EdgeUp(h, k, !held[ed], intro, introSeq)
				held[ed] = e.Registered(h)
			})
		case 1:
			what = "edge down"
			if held[ed] {
				g.do(func(e *core.Engine) { e.EdgeDown(h, k) })
				delete(held, ed)
			}
		case 2:
			what = "forward a held reference"
			if held[ed] {
				g.do(func(e *core.Engine) { e.SentRef(h, k, remotes[rng.Intn(len(remotes))]) })
			}
		case 3:
			what = "forward an own reference"
			g.do(func(e *core.Engine) { e.SentRef(h, h, k) })
		case 4:
			what = "resolve an introduction"
			g.do(func(e *core.Engine) { e.ResolveIntroduction(h, k, intro, introSeq) })
		case 5:
			s := core.StreamAssert
			if rng.Intn(2) == 0 {
				s = core.StreamDestroy
			}
			what = "ack"
			before := g.rows(s)
			g.ack(k.Site, s, uint64(rng.Intn(sentSeqs(g.s, s)+2)))
			if p.acked != nil {
				p.acked(s, before-g.rows(s))
			}
		case 6:
			what = "refresh"
			g.refresh()
		default:
			what = "collect a holder"
			if h != g.r1 && rng.Intn(3) == 0 {
				g.do(func(e *core.Engine) { e.EdgeDown(g.r1, h) })
				if g.s.ClusterRemoved(h) {
					for ed := range held {
						if ed[0] == h {
							delete(held, ed)
						}
					}
				}
			}
		}
		p.check(step, what)
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
		g := newEngineRig(t)
		held := make(map[edge]bool) // the mutator's view: edges it may use
		retainProgram{
			steps:   120,
			weights: [8]int{5, 4, 3, 2, 2, 2, 1, 1},
			check: func(step int, what string) {
				compared += checkNewestBundles(t, g, held, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
			},
		}.run(t, g, seed, held)
	}
	if compared < 10000 {
		t.Fatalf("only %d rows compared: the program no longer keeps bundles outstanding", compared)
	}
}

// TestRowsLeaveOnlyByAck: a retained row leaves its ledger only when a
// cumulative ack covers it, so no stream sequence is ever abandoned. A
// seeded engine program must keep, after every step and for each
// stream, the rows first sent equal to the rows acks retired plus the
// rows outstanding — and the newest bundle of each destroyed edge of a
// live holder equal to a rebuild from the holder's on-behalf row.
func TestRowsLeaveOnlyByAck(t *testing.T) {
	compared := 0
	for seed := int64(1); seed <= 200; seed++ {
		g := newEngineRig(t)
		held := make(map[edge]bool)
		retired := make(map[core.Stream]int)
		retainProgram{
			steps:   150,
			weights: [8]int{6, 4, 1, 0, 2, 4, 2, 1},
			acked:   func(s core.Stream, n int) { retired[s] += n },
			check: func(step int, what string) {
				for _, s := range []core.Stream{core.StreamAssert, core.StreamDestroy} {
					if sent, left := sentSeqs(g.s, s), g.rows(s); sent != retired[s]+left {
						t.Fatalf("seed %d step %d (%s): stream %v sent %d rows, %d retired by ack and %d outstanding: %d left another way",
							seed, step, what, s, sent, retired[s], left, sent-retired[s]-left)
					}
				}
				compared += checkNewestBundles(t, g, held, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
			},
		}.run(t, g, seed, held)
	}
	if compared < 5000 {
		t.Fatalf("only %d bundles compared: the program no longer keeps destroyed edges outstanding", compared)
	}
}
