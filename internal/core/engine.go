package core

import (
	"fmt"
	"math"

	"causalgc/internal/ids"
	"causalgc/internal/vclock"
)

// Propagation is the payload of a dependency-vector propagation (§3.3
// step 3): the sender's first-hand incoming-edge state and clock, relayed
// copies of other processes' first-hand rows, and the sender's own
// on-behalf entries. Everything merges per edge at the receiver, so
// propagations are idempotent and tolerate loss, duplication and
// reordering (§5).
type Propagation struct {
	Clock    uint64
	Auth     vclock.Vector
	HintCols []ids.ClusterID
	Rows     map[ids.ClusterID]RowGossip
	OBs      map[ids.ClusterID]OBGossip
}

// RowGossip is a relayed copy of a process's first-hand state.
type RowGossip struct {
	Auth     vclock.Vector
	HintCols []ids.ClusterID
}

// OBGossip is the sender's first-hand on-behalf entries for one process.
type OBGossip struct {
	Auth  vclock.Vector
	Hints vclock.Vector
}

// DestroyMsg is the §3.4 edge-destruction control message: the sender's
// authoritative stamps for the target's incoming edges (its own column
// replaced by Ē), the forwarding hints it brokered — "multiple
// edge-creation control messages bundled with an edge-destruction control
// message in one atomic delivery" — and the introductions it processed
// for its own edge, which resolve the corresponding hints at the target.
type DestroyMsg struct {
	Auth      vclock.Vector
	Hints     vclock.Vector
	Processed vclock.Vector
}

// AssertMsg is the edge-assert: the source's authoritative live stamp for
// its edge to the target, resolving the introduction (Intro, IntroSeq).
// A zero Stamp is a negative assert: it carries no liveness claim and
// only expires the introduction (see ResolveIntroduction).
type AssertMsg struct {
	Stamp    uint64
	Intro    ids.ClusterID
	IntroSeq uint64
}

// Sender transmits GGD control messages to other sites. The site runtime
// implements it on top of the network, and owns what the engine does
// not: it draws each tracked frame's retirement-stream sequence, retains
// the frame until the receiver acknowledges it, and re-sends it
// (DESIGN.md §3.2). Local deliveries never touch it.
//
// The engine sends each destroy and assert once: it passes sequence 0
// and ignores the result. The sequence parameter and the result stay
// only because the frozen benchmark's engine harness implements this
// interface.
type Sender interface {
	// SendDestroy ships an edge-destruction bundle in StreamDestroy.
	SendDestroy(from, to ids.ClusterID, m DestroyMsg, seq uint64) uint64
	// SendAssert ships an edge-assert in StreamAssert.
	SendAssert(from, to ids.ClusterID, m AssertMsg, seq uint64) uint64
	// SendPropagate ships a dependency-vector propagation (untracked:
	// propagations are regenerated each round, never retained).
	SendPropagate(from, to ids.ClusterID, m Propagation)
	// SettleFrame reports that a tracked frame from peer reached a final,
	// replayable disposition (merged into a process, born or not, or
	// dropped as addressed to a tombstone). The site runtime advances the
	// receive watermark and acknowledges cumulatively.
	SettleFrame(peer ids.SiteID, stream Stream, seq uint64)
}

// Stats counts engine activity for the experiment harness.
type Stats struct {
	// Removed counts clusters detected as garbage and removed.
	Removed int
	// Evaluations counts closure computations.
	Evaluations int
	// PropagationsSent counts dependency vectors sent (local and remote).
	PropagationsSent int
	// DestroysSent counts edge-destruction messages sent (local and
	// remote), including finalisation destroys and, on a site, refresh
	// re-sends.
	DestroysSent int
	// AssertsSent counts edge-assert messages sent (first sends, negative
	// asserts included).
	AssertsSent int
	// The next four are counted by the site, which retains and re-sends
	// what the engine sent, and are summed in with the engine's counters
	// by Site.EngineStats; an engine alone leaves them zero.
	//
	// AssertResends counts retained edge-asserts re-sent by a refresh.
	AssertResends int
	// DestroyResends counts edge-destruction bundles, finalisation ones
	// included, re-sent by a refresh (subset of DestroysSent).
	DestroyResends int
	// Deprecated: always zero (finalisation re-sends count in
	// DestroyResends); kept only while the frozen benchmark reads it.
	LegacyResends int
	// ResendsSuppressed counts assert and destroy re-sends the
	// exponential damper held back (the row stays retained; it is
	// re-shipped when its interval lapses).
	ResendsSuppressed int
	// RowsRetired counts retained asserts and edge-destruction bundles
	// retired by cumulative frame acknowledgements.
	RowsRetired int
	// HintsExpired counts introduction hints expired as provably stale
	// (negative asserts processed, local expiries included).
	HintsExpired int
	// StaleDeliveries counts messages addressed to removed or unknown
	// processes (harmless; dropped).
	StaleDeliveries int
}

// Options tune the engine.
type Options struct {
	// UnsafeSkipConfirmation disables the row-confirmation guard
	// (DESIGN.md interpretation #4). A2 ablation only.
	UnsafeSkipConfirmation bool
	// UnsafeNoHints disables introduction hints and edge-asserts,
	// reproducing the paper's raw max-merge of counts and Ē stamps. A2
	// ablation only: exhibits the introduction race.
	UnsafeNoHints bool
	// RemoveObserver, when non-nil, is called with the process's final log
	// just before removal (diagnostics and the trace tooling).
	RemoveObserver func(id ids.ClusterID, log *vclock.Log, clock uint64)
	// Owns, when non-nil, narrows this engine's notion of "local": a
	// cluster is handled in-engine only when Owns reports true, and
	// every other cluster — including same-site clusters owned by a
	// sibling shard — is reached through the Sender like a remote peer
	// (DESIGN.md §3.4). Nil means site equality (a standalone engine).
	Owns func(ids.ClusterID) bool
}

// Engine is one site's GGD runtime. It is not safe for concurrent use;
// the site runtime serialises access.
type Engine struct {
	site     ids.SiteID
	send     Sender
	onRemove func(ids.ClusterID)
	opts     Options

	procs     map[ids.ClusterID]*process
	tombstone map[ids.ClusterID]uint64 // removed cluster → final clock

	inbox    []delivery
	draining bool
	// unborn counts the processes in procs that were mentioned before their
	// creation message arrived (process.born false).
	unborn int

	stats Stats
}

// process is the per-global-root state: the paper's "each global root
// appears as a process" (§3.1).
type process struct {
	id    ids.ClusterID
	clock uint64
	log   *vclock.Log
	// acq is the paper's Acquaintances_i: the targets of the process's
	// live out-edges in the global root graph, i.e. its remote successors,
	// each with the log version its last propagation carried.
	acq outEdges
	// active marks participation in a GGD episode: set when a destroy or
	// a propagation arrives (§3.6: "GGD is only triggered when the edge
	// ... is removed"). Edge-asserts received by inactive processes are
	// plain bookkeeping and do not start propagation rounds, keeping pure
	// mutation free of GGD fan-out.
	active bool
	// born is set by Register. A control frame may name an owned cluster
	// before its creation message arrives (different channels): the process
	// then exists unborn — frames merge into its log as usual, but it is
	// never evaluated, so it can be neither removed nor made to propagate
	// while the site has no heap shell for it (DESIGN.md §3.2).
	born bool
}

// outEdges maps each out-edge's target to the log version the edge's
// last propagation carried: 0 when it has carried none since it formed,
// since a refresh round began for its process, or since its target's
// site restarted — the next propagation on it ships the full payload.
type outEdges map[ids.ClusterID]uint64

// sorted returns the targets in order.
func (o outEdges) sorted() []ids.ClusterID {
	out := make([]ids.ClusterID, 0, len(o))
	for k := range o {
		out = append(out, k)
	}
	ids.SortClusters(out)
	return out
}

// has reports whether o holds an edge to k.
func (o outEdges) has(k ids.ClusterID) bool {
	_, ok := o[k]
	return ok
}

// floor is the lowest mark: every row above it is owed to some edge.
func (o outEdges) floor() uint64 {
	low := uint64(math.MaxUint64)
	for _, mark := range o {
		low = min(low, mark)
	}
	return low
}

// unmark makes every edge's next propagation ship the full payload.
func (o outEdges) unmark() {
	for k := range o {
		o[k] = 0
	}
}

// delivery is one queued control-message delivery. seq and stream carry
// the frame's retirement-stream identity (zero for local or untracked
// frames); a delivery that reaches a final disposition is settled back
// to the sender's site through Sender.SettleFrame.
type delivery struct {
	to, from ids.ClusterID
	kind     deliveryKind
	destroy  DestroyMsg
	prop     Propagation
	assert   AssertMsg
	seq      uint64
	stream   Stream
}

type deliveryKind int

const (
	deliverDestroy deliveryKind = iota + 1
	deliverPropagate
	deliverAssert
	// deliverBirth carries no message: it is the one evaluation Register
	// queues for a process that was mentioned before it was born.
	deliverBirth
)

// New creates an engine. send must not be nil; onRemove is invoked for
// every cluster the engine removes (the site runtime clears the heap's
// entry table there) and may be nil.
func New(site ids.SiteID, send Sender, onRemove func(ids.ClusterID), opts Options) *Engine {
	e := &Engine{
		site:      site,
		send:      send,
		onRemove:  onRemove,
		opts:      opts,
		procs:     make(map[ids.ClusterID]*process),
		tombstone: make(map[ids.ClusterID]uint64),
	}
	return e
}

// Stats returns a copy of the activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// owns reports whether cl is handled by this engine instance (as
// opposed to a peer engine reached through the Sender — a remote site,
// or a sibling shard of the same site).
func (e *Engine) owns(cl ids.ClusterID) bool {
	if e.opts.Owns != nil {
		return e.opts.Owns(cl)
	}
	return cl.Site == e.site
}

// Unborn is the number of unborn processes: clusters that control
// messages named ahead of their creation message, each one log that
// outlives its traffic until the creation arrives. It is the engine's
// one depth gauge (the paper's §4 scalability argument made
// operational); the engine retains no sent frame, the site does.
func (e *Engine) Unborn() int { return e.unborn }

// local returns the process of the owned cluster cl, creating it unborn
// on first mention, or nil when cl is tombstoned.
func (e *Engine) local(cl ids.ClusterID) *process {
	if p := e.procs[cl]; p != nil {
		return p
	}
	if _, dead := e.tombstone[cl]; dead {
		return nil
	}
	p := &process{
		id:  cl,
		log: vclock.NewLog(cl),
		acq: make(outEdges),
	}
	e.procs[cl] = p
	e.unborn++
	return p
}

// Register gives a local cluster its process, born. Registering a born or
// tombstoned process is a no-op (idempotent). A process that early frames
// created unborn is due the verdict they could not trigger: exactly one
// evaluation, queued rather than run here — the site materialises the
// cluster's object between HandleCreate and its next Drain, and a removal
// inside Register would tombstone a cluster whose heap shell does not
// exist yet.
func (e *Engine) Register(cl ids.ClusterID) {
	if cl.Site != e.site {
		panic(fmt.Sprintf("core %v: register foreign cluster %v", e.site, cl))
	}
	_, early := e.procs[cl]
	p := e.local(cl)
	if p == nil || p.born {
		return
	}
	p.born = true
	e.unborn--
	if early {
		e.inbox = append(e.inbox, delivery{to: cl, kind: deliverBirth})
	}
}

// Registered reports whether cl has a live, born process: its creation
// was processed here (an unborn one's is still in flight).
func (e *Engine) Registered(cl ids.ClusterID) bool {
	p := e.procs[cl]
	return p != nil && p.born
}

// Removed reports whether cl was detected as garbage and removed.
func (e *Engine) Removed(cl ids.ClusterID) bool {
	_, dead := e.tombstone[cl]
	return dead
}

// Clock returns the process's current event counter (final counter for
// removed processes).
func (e *Engine) Clock(cl ids.ClusterID) uint64 {
	if p := e.procs[cl]; p != nil {
		return p.clock
	}
	return e.tombstone[cl]
}

// LogSnapshot returns a deep copy of the process's log (trace tooling), or
// nil for removed/unknown processes.
func (e *Engine) LogSnapshot(cl ids.ClusterID) *vclock.Log {
	if p := e.procs[cl]; p != nil {
		return p.log.Clone()
	}
	return nil
}

// Processes returns the live local processes, unborn ones included,
// sorted.
func (e *Engine) Processes() []ids.ClusterID {
	out := make([]ids.ClusterID, 0, len(e.procs))
	for id := range e.procs {
		out = append(out, id)
	}
	ids.SortClusters(out)
	return out
}

// --- Lazy log-keeping (§3.4) -------------------------------------------

// holder returns the process of a cluster the heap reports an event of:
// an owned one whose creation is still in flight (the site built its
// object from an early transfer) exists unborn from this mention on; a
// foreign or tombstoned one is counted stale, and nil.
func (e *Engine) holder(cl ids.ClusterID) *process {
	p := e.procs[cl]
	if p == nil && e.owns(cl) {
		p = e.local(cl)
	}
	if p == nil {
		e.stats.StaleDeliveries++
	}
	return p
}

// EdgeUp records the creation (or re-assertion) of the global-root-graph
// edge holder→target, stamped in the holder's clock space. intro and
// introSeq identify the introduction being consumed (the cluster whose
// forwarded reference created the edge, and its forwarding sequence
// number); they are zero for locally originated references.
//
// For a local target everything is written directly (same site, atomic;
// a target whose creation message is still in flight exists unborn).
// For a remote target the holder records its authoritative stamp on
// behalf of the target and, on a 0→1 transition, sends one deferred
// idempotent edge-assert so the target can resolve the introduction
// (the site retains it until acknowledged).
func (e *Engine) EdgeUp(holder, target ids.ClusterID, first bool, intro ids.ClusterID, introSeq uint64) {
	if holder == target {
		return
	}
	p := e.holder(holder)
	if p == nil {
		return
	}
	p.clock++
	stamp := vclock.At(p.clock)
	if first {
		p.acq[target] = 0
	}
	creation := introSeq == ids.CreationSeq
	consumes := intro.Valid() && introSeq > 0 && !creation
	if e.owns(target) {
		if t := e.local(target); t != nil {
			t.log.Own().MergeEntry(holder, stamp)
			if consumes {
				t.log.Hints().Clear(holder, intro, introSeq)
			}
		}
		return
	}
	ob := p.log.OB(target)
	ob.Auth.MergeEntry(holder, stamp)
	if consumes {
		ob.Processed.MergeEntry(intro, vclock.At(introSeq))
	}
	// A creation needs no assert: the creation message itself carries the
	// authoritative stamp to the new cluster.
	if first && !creation && !e.opts.UnsafeNoHints {
		e.sendAssert(holder, target, AssertMsg{Stamp: p.clock, Intro: intro, IntroSeq: introSeq})
	}
}

// sendAssert ships an edge-assert to the remote target.
func (e *Engine) sendAssert(holder, target ids.ClusterID, m AssertMsg) {
	e.stats.AssertsSent++
	e.send.SendAssert(holder, target, m, 0)
}

// SentRef records that the holder forwarded a reference denoting target
// to the cluster dest — the paper's DV_i[k][j]++ (third party) and
// DV_i[i][j]++ (own reference) — and returns the forwarding sequence
// number to embed in the mutator message.
func (e *Engine) SentRef(holder, target, dest ids.ClusterID) uint64 {
	if target == dest {
		return 0
	}
	p := e.holder(holder)
	if p == nil {
		return 0
	}
	p.clock++
	seq := p.clock
	if target == holder {
		// Sending one's own reference: the pending edge dest→holder is a
		// self-introduced hint on the holder's own vector, resolved when
		// dest's assert or destruction bundle arrives.
		if !e.opts.UnsafeNoHints {
			p.log.Hints().Arm(dest, holder, seq)
		}
		return seq
	}
	if e.owns(target) {
		// Local target: arm its hint directly (same site, atomic).
		if e.opts.UnsafeNoHints {
			return seq
		}
		if t := e.local(target); t != nil {
			t.log.Hints().Arm(dest, holder, seq)
		}
		return seq
	}
	p.log.OB(target).Hints.MergeEntry(dest, vclock.At(seq))
	return seq
}

// EdgeDown records the destruction of the last reference behind the edge
// holder→target and emits its edge-destruction control message (§3.4)
// through destroyEdge. The delivery is queued; callers run Drain at a
// safe point.
func (e *Engine) EdgeDown(holder, target ids.ClusterID) {
	if holder == target {
		return
	}
	p := e.holder(holder)
	if p == nil {
		return
	}
	delete(p.acq, target)
	e.destroyEdge(p, target)
}

// RemoteCreationStamp returns the holder's current clock, the stamp to
// piggyback on a creation message. Callers perform the heap write (whose
// EdgeUp hook bumps the clock for the creation event) before sending.
func (e *Engine) RemoteCreationStamp(holder ids.ClusterID) uint64 {
	return e.Clock(holder)
}

// HandleCreate registers the process for a cluster created on behalf of a
// remote creator and records the incoming edge with the piggybacked stamp
// (the one log-keeping datum the physical creation message carries).
func (e *Engine) HandleCreate(cl, creator ids.ClusterID, stamp uint64) {
	e.Register(cl)
	p, ok := e.procs[cl]
	if !ok {
		e.stats.StaleDeliveries++
		return
	}
	p.log.Own().MergeEntry(creator, vclock.At(stamp))
}

// NoteStale counts in Stats.StaleDeliveries a frame the site runtime
// dropped before any entry point saw it (a creation message naming
// another site's cluster or object).
func (e *Engine) NoteStale() { e.stats.StaleDeliveries++ }

// --- GGD message handling (§3.3, Fig 6) ---------------------------------

// HandleDestroyFrame processes an incoming edge-destruction control
// message carrying its retirement-stream identity: seq is the frame's
// sequence in the sender site's destroy stream — zero for untracked
// frames. The ignored last argument stays while the frozen benchmark
// passes it.
func (e *Engine) HandleDestroyFrame(to, from ids.ClusterID, m DestroyMsg, seq uint64, _ bool) {
	e.inbox = append(e.inbox, delivery{to: to, from: from, kind: deliverDestroy, destroy: m, seq: seq, stream: StreamDestroy})
	e.Drain()
}

// HandlePropagate processes an incoming dependency-vector propagation.
func (e *Engine) HandlePropagate(to, from ids.ClusterID, m Propagation) {
	e.inbox = append(e.inbox, delivery{to: to, from: from, kind: deliverPropagate, prop: m})
	e.Drain()
}

// HandleAssertFrame processes an incoming edge-assert carrying its
// sequence in the sender site's assert stream (zero for untracked).
func (e *Engine) HandleAssertFrame(to, from ids.ClusterID, m AssertMsg, seq uint64) {
	e.inbox = append(e.inbox, delivery{to: to, from: from, kind: deliverAssert, assert: m, seq: seq, stream: StreamAssert})
	e.Drain()
}

// AckDestroys retires nothing and returns 0: the site, not the engine,
// retains the bundles an ack covers (DESIGN.md §3.2). It stays only
// because the frozen benchmark calls it.
func (e *Engine) AckDestroys(ids.SiteID, uint64) int { return 0 }

// PeerRestarted unmarks every out-edge into peer, so the next
// propagation on each ships the full payload: called when the peer's
// epoch changes (it restarted and may have lost undurable state).
func (e *Engine) PeerRestarted(peer ids.SiteID) {
	for _, p := range e.procs {
		for k := range p.acq {
			if k.Site == peer {
				p.acq[k] = 0
			}
		}
	}
}

// Drain processes queued deliveries until quiescence. Safe to call at any
// time; reentrant calls (hooks firing inside Drain) queue work for the
// outer invocation.
func (e *Engine) Drain() {
	if e.draining {
		return
	}
	e.draining = true
	defer func() { e.draining = false }()
	for len(e.inbox) > 0 {
		d := e.inbox[0]
		e.inbox = e.inbox[1:]
		e.receive(d)
	}
}

// settle reports a tracked remote frame's final disposition to the site
// runtime, which advances the cumulative receive watermark for the
// sender's stream. Local and untracked deliveries settle nothing.
func (e *Engine) settle(d delivery) {
	if d.seq != 0 && d.stream != 0 && !e.owns(d.from) {
		e.send.SettleFrame(d.from.Site, d.stream, d.seq)
	}
}

// receive is the paper's Receive procedure (Fig 6): merge the delivery
// into its process's log, settle it, and evaluate when the log changed.
// A delivery that changes nothing changes no verdict: a process's
// verdict depends only on its own log.
func (e *Engine) receive(d delivery) {
	// The lookup comes first: owns is asked only on a miss (on a sharded
	// site it is a routing-map load, and this is the hot path).
	p := e.procs[d.to]
	if p == nil && e.owns(d.to) {
		// A frame may reach an owned cluster ahead of its creation message
		// (reordered channels): the process exists from this first mention.
		p = e.local(d.to)
		if p == nil {
			// Tombstoned: the target's word is final, the frame's purpose is
			// moot, and without settlement the sender would re-ship it
			// forever.
			e.settle(d)
		}
	}
	if p == nil {
		// Stale traffic to a removed or unknown process: dropped. Message
		// loss never compromises safety (§5), so neither does this.
		e.stats.StaleDeliveries++
		return
	}
	if d.kind == deliverDestroy || d.kind == deliverPropagate {
		p.active = true
	}
	changed := e.merge(p, d)
	e.settle(d)
	if changed {
		e.evaluate(p)
	}
}

// merge is log-keeping, the one place a delivery changes a log: it
// folds d into p's log and clock, counts in stats, and reports whether
// anything changed. It sends nothing and queues nothing.
func (e *Engine) merge(p *process, d delivery) (changed bool) {
	switch d.kind {
	case deliverBirth:
		// Nothing to merge: the early frames already did. They may have
		// changed the log, so the verdict may propagate.
		return true

	case deliverDestroy:
		own := p.log.Own()
		if prior := own.Get(d.from); prior.Merge(d.destroy.Auth.Get(d.from)) != prior {
			// A genuine (non-duplicate) destruction is a log-keeping
			// event: bump the clock (§3.1).
			p.clock++
			changed = true
		}
		changed = own.MergeAll(d.destroy.Auth) || changed
		// The bundled third-party introductions (§3.4) arm hints with the
		// sender as introducer; the introductions the sender already
		// processed for its own edge resolve the matching hints.
		changed = e.armHints(p, d.from, d.destroy.Hints) || changed
		if !e.opts.UnsafeNoHints {
			for intro, s := range d.destroy.Processed {
				changed = p.log.Hints().Clear(d.from, intro, s.Seq) || changed
			}
		}

	case deliverAssert:
		m := d.assert
		if m.Stamp > 0 {
			changed = p.log.Own().MergeEntry(d.from, vclock.At(m.Stamp))
		}
		if !m.Intro.Valid() || m.IntroSeq == 0 {
			break
		}
		if m.Stamp > 0 {
			changed = p.log.Hints().Clear(d.from, m.Intro, m.IntroSeq) || changed
		} else if p.log.Hints().Expire(d.from, m.Intro, m.IntroSeq) {
			// Negative assert: the introduction is provably dead at the
			// source's site — expire it.
			e.stats.HintsExpired++
			changed = true
		}

	case deliverPropagate:
		m := d.prop
		// Record the sender's first-hand vector as its confirmed row, and
		// refresh the own vector's column for the sender: the propagation
		// travelled the live edge sender→me, re-asserting it with the
		// sender's current clock.
		changed = p.log.MergeVRow(d.from, m.Auth, m.HintCols, true, true)
		changed = p.log.Own().MergeEntry(d.from, vclock.At(m.Clock)) || changed
		for owner, row := range m.Rows {
			if owner != d.to { // relayed copies of my own vector are subsets
				changed = p.log.MergeVRow(owner, row.Auth, row.HintCols, false, true) || changed
			}
		}
		for target, ob := range m.OBs {
			if target == d.to {
				// First-hand on-behalf entries about me: authoritative
				// stamps merge into the own vector; forwarding hints arm
				// with the sender as introducer.
				changed = p.log.Own().MergeAll(ob.Auth) || changed
				changed = e.armHints(p, d.from, ob.Hints) || changed
				continue
			}
			// Knowledge about a third process folds into its row as
			// relayed, attribution-free data: authoritative stamps by
			// value, hints as conservative live columns.
			changed = p.log.MergeVRow(target, ob.Auth, ob.Hints.LiveColumns(), false, false) || changed
		}
	}
	return changed
}

// armHints arms p's hint for every forwarding in hints, with from as the
// introducer, and reports whether any was new.
func (e *Engine) armHints(p *process, from ids.ClusterID, hints vclock.Vector) (changed bool) {
	if e.opts.UnsafeNoHints {
		return false
	}
	for col, s := range hints {
		changed = p.log.Hints().Arm(col, from, s.Seq) || changed
	}
	return changed
}

// ResolveIntroduction resolves introduction (intro, seq) of the edge
// holder→target when the forwarded reference was delivered to this site
// and discarded without a slot write — the holder object is provably
// dead (collected, or its cluster tombstoned). Exactly one of three
// things is true, and each yields a causally-safe resolution:
//
//   - holder's cluster still holds the edge (another object's
//     reference): the introduction is consumed on the cluster's behalf
//     with a genuine re-assert — the edge exists, so the fresh live
//     stamp is truthful (DESIGN.md interpretation #2).
//   - holder's cluster holds no such edge: any earlier edge was
//     destroyed (its Ē-stamped bundle, re-sent by Refresh, supersedes),
//     and no event of the cluster can ever consume this forwarding — a
//     negative assert expires the hint at the owner.
//   - the owner is local: the hint is expired directly (in its unborn
//     process when its creation message is still in flight — the
//     transfer's dedup record means it never re-arrives, so the expiry
//     must not wait for anything).
//
// The site retains every emitted assert and re-sends it until
// acknowledged.
func (e *Engine) ResolveIntroduction(holder, target, intro ids.ClusterID, seq uint64) {
	if e.opts.UnsafeNoHints || seq == 0 || seq == ids.CreationSeq || !intro.Valid() {
		return
	}
	if e.owns(target) {
		if t := e.local(target); t != nil && t.log.Hints().Expire(holder, intro, seq) {
			e.stats.HintsExpired++
			e.evaluate(t)
			e.Drain()
		}
		return
	}
	m := AssertMsg{Intro: intro, IntroSeq: seq}
	if p, ok := e.procs[holder]; ok && p.acq.has(target) {
		p.clock++
		m.Stamp = p.clock
		ob := p.log.OB(target)
		ob.Auth.MergeEntry(holder, vclock.At(p.clock))
		ob.Processed.MergeEntry(intro, vclock.At(seq))
	}
	e.sendAssert(holder, target, m)
}

// evaluate runs ComputeV on p, whose log changed, and acts on the
// verdict: removal when the closure certifies garbage, else propagation
// when p takes part in an episode (new first-hand or relayed knowledge
// circulates onward for cycle-wide convergence). An unborn process is
// never evaluated — it merges, but can be neither removed nor made to
// propagate; its Register queues the one evaluation it is owed.
func (e *Engine) evaluate(p *process) {
	if !p.born {
		return
	}
	e.stats.Evaluations++
	res := p.log.Closure(p.clock)
	if e.opts.UnsafeSkipConfirmation {
		res.Complete = true
	}
	if res.Garbage() && !p.id.IsRoot() {
		e.remove(p)
	} else if p.active {
		e.propagate(p, res)
	}
}

// assemble builds the propagation payload: the own first-hand state, the
// confirmed rows of the closure's expanded ancestry, and the first-hand
// on-behalf entries — the "increasingly accurate approximations"
// circulated along the paths of the global root graph (§3.3). Rows and
// entries at or below floor are left out: every edge has carried them.
// Every confirmed row of the ancestry still goes through Ship, so a row
// that enters the set draws a version above every edge's mark.
func (e *Engine) assemble(p *process, res vclock.ClosureResult, floor uint64) Propagation {
	m := Propagation{
		Clock:    p.clock,
		Auth:     p.log.Own().Clone(),
		HintCols: p.log.Hints().Cols(),
	}
	p.log.NextShipment()
	for _, q := range res.Expanded.Sorted() {
		if q == p.id || q.IsRoot() {
			continue
		}
		r := p.log.PeekVRow(q)
		if r == nil || !r.Confirmed || p.log.Ship(r) <= floor {
			continue
		}
		if m.Rows == nil {
			m.Rows = make(map[ids.ClusterID]RowGossip)
		}
		m.Rows[q] = RowGossip{Auth: r.Auth.Clone(), HintCols: r.HintCols.Sorted()}
	}
	for _, x := range p.log.Processes() {
		if x == p.id {
			continue
		}
		ob := p.log.PeekOB(x)
		if ob == nil || (len(ob.Auth) == 0 && len(ob.Hints) == 0) || ob.Ver <= floor {
			continue
		}
		if m.OBs == nil {
			m.OBs = make(map[ids.ClusterID]OBGossip)
		}
		m.OBs[x] = OBGossip{Auth: ob.Auth.Clone(), Hints: ob.Hints.Clone()}
	}
	return m
}

// propagate sends p's state along every out-edge (§3.3 step 3). The
// payload is assembled once. An edge without a mark gets all of it; a
// marked edge gets the own state and only the rows and on-behalf entries
// of a later version than its mark, never its receiver's own row. Every
// payload shares the assembled maps where it can: immutable once built,
// merged by value, never retained — an edge keeps only the version it
// carried.
func (e *Engine) propagate(p *process, res vclock.ClosureResult) {
	acq := p.acq.sorted()
	if len(acq) == 0 {
		return
	}
	full := e.assemble(p, res, p.acq.floor())
	ver := p.log.Version()
	for _, k := range acq {
		m := full
		if mark := p.acq[k]; mark != 0 {
			m = since(p.log, full, k, mark)
		}
		p.acq[k] = ver
		e.stats.PropagationsSent++
		if e.owns(k) {
			e.inbox = append(e.inbox, delivery{to: k, from: p.id, kind: deliverPropagate, prop: m})
		} else {
			e.send.SendPropagate(p.id, k, m)
		}
	}
}

// since is the part of full that an edge to k whose last propagation
// carried mark has not carried: the own state, and the rows and
// on-behalf entries of a later version — never k's own row, which k
// discards on arrival.
func since(l *vclock.Log, full Propagation, k ids.ClusterID, mark uint64) Propagation {
	m := full
	m.Rows = pick(full.Rows, func(q ids.ClusterID) bool { return q != k && l.PeekVRow(q).Ver > mark })
	m.OBs = pick(full.OBs, func(x ids.ClusterID) bool { return l.PeekOB(x).Ver > mark })
	return m
}

// pick returns the entries of full that keep admits, full itself when it
// admits them all: the edges that need the whole map share it.
func pick[V any](full map[ids.ClusterID]V, keep func(ids.ClusterID) bool) map[ids.ClusterID]V {
	n := 0
	for q := range full {
		if keep(q) {
			n++
		}
	}
	switch n {
	case len(full):
		return full
	case 0:
		return nil
	}
	out := make(map[ids.ClusterID]V, n)
	for q, v := range full {
		if keep(q) {
			out[q] = v
		}
	}
	return out
}

// remove finalises a garbage process: the paper's "remove" action plus the
// finalisation destroys to its successors, which is what lets detection
// cascade through cycles and chains.
func (e *Engine) remove(p *process) {
	if e.opts.RemoveObserver != nil {
		e.opts.RemoveObserver(p.id, p.log.Clone(), p.clock)
	}
	delete(e.procs, p.id)
	e.stats.Removed++
	for _, k := range p.acq.sorted() {
		e.destroyEdge(p, k)
	}
	e.tombstone[p.id] = p.clock
	if e.onRemove != nil {
		e.onRemove(p.id)
	}
}

// destroyEdge is p's event of destroying its edge to k — a dropped
// reference, or p's removal — and emits the edge-destruction control
// message (§3.4). A local target gets a minimal destroy through the
// inbox: hints and processed records were written directly at
// forward/acquire time. A remote target's on-behalf row takes the Ē, and
// the bundle built from it ships once; the site retains that frame until
// the target site acknowledges it.
func (e *Engine) destroyEdge(p *process, k ids.ClusterID) {
	p.clock++
	e.stats.DestroysSent++
	if e.owns(k) {
		e.inbox = append(e.inbox, delivery{to: k, from: p.id, kind: deliverDestroy, destroy: DestroyMsg{
			Auth: vclock.Vector{p.id: vclock.Eps(p.clock)},
		}})
		return
	}
	ob := p.log.OB(k)
	ob.Auth.MergeEntry(p.id, vclock.Eps(p.clock))
	e.send.SendDestroy(p.id, k, DestroyMsg{Auth: ob.Auth.Clone(), Hints: ob.Hints.Clone(), Processed: ob.Processed.Clone()}, 0)
}

// --- Recovery (§5: residual garbage) ------------------------------------

// Refresh re-evaluates every local process and re-propagates its
// current state unconditionally and in full: a row a lost propagation
// carried reaches its receiver again only here, since later ones carry
// only newer rows. The site's refresh round then re-ships the retained
// frames no ack has covered (DESIGN.md §3.2), a lost destroy among
// them, which propagation alone can never recover: once the edge is
// gone the destroyer no longer propagates towards its former target.
//
// GGD messages are idempotent, so a refresh is always safe; it
// re-detects residual garbage whose original detection traffic was
// lost.
func (e *Engine) Refresh() {
	for _, id := range e.Processes() {
		// A process an earlier iteration's cascade removed is gone; an
		// unborn one is not evaluated, so it stays out of the episode.
		if p, ok := e.procs[id]; ok && p.born {
			p.active = true
			p.acq.unmark()
			e.evaluate(p)
		}
		e.Drain()
	}
}
