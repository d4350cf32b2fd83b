package site

import (
	"sort"
	"sync"

	"causalgc/internal/core"
	"causalgc/internal/ids"
	"causalgc/internal/wire"
)

// This file implements the site half of the acknowledged-retirement
// protocol (DESIGN.md §3.2). The engine decides *what* is sent; the
// site owns the wire-level bookkeeping: per-(peer, stream) sequence
// counters on the send side, each shard's ledgers of the tracked frames
// it sent (ledger.go), cumulative watermarks on the receive side,
// FrameAck emission, and the re-send of what no ack has covered yet.
//
// The stream state lives in a streams table shared by every shard of
// the site (DESIGN.md §3.4): a remote peer tracks ONE cumulative
// watermark per stream from this site, so two shards drawing sequences
// toward the same peer must draw from the same counter — per-shard
// counters would collide at the peer and silently retire undelivered
// frames.

// FrameStats counts the site-level retirement activity: the operator's
// view of how much re-send state is outstanding and how it drains, per
// session: no snapshot carries a counter.
type FrameStats struct {
	// OutboxRetained is the current number of unacknowledged outbound
	// mutator frames (gauge).
	OutboxRetained int
	// Deprecated: always zero (the outbox retains every frame until it
	// is acknowledged); kept only while the frozen benchmark reads it.
	OutboxEvicted int
	// OutboxResends counts outbox frames re-shipped by Refresh.
	OutboxResends int
	// ResendsSuppressed counts outbox re-sends the damper held back.
	ResendsSuppressed int
	// AcksSent and AcksReceived count FrameAck traffic.
	AcksSent, AcksReceived int
	// FramesRetired counts outbox frames retired by cumulative acks
	// (assert and destroy rows are counted in EngineStats.RowsRetired).
	FramesRetired int
	// Deprecated: always zero (a retained row leaves only on an ack, so
	// no floor is ever advised); kept only while the frozen benchmark
	// reads it.
	AdvancesSent int
	// DeliveriesRefused counts incoming deliveries dropped unapplied and
	// unacknowledged because their write-ahead append failed: tolerated
	// loss (the sender re-ships what it retains), but a failing disk
	// makes the site a black hole, so it is counted.
	DeliveriesRefused int
}

// AckObserver is an optional extension of Observer: implementations
// that also satisfy it receive retirement events. Like Observer
// callbacks, these run with a shard mutex held and must not call back
// into the Site.
type AckObserver interface {
	// FrameRetired fires when a cumulative FrameAck from peer retires
	// outbox frames exactly.
	FrameRetired(site ids.SiteID, peer ids.SiteID, stream core.Stream, frames int)
}

// streamKey names one retirement stream between this site and a peer.
type streamKey struct {
	peer ids.SiteID
	kind core.Stream
}

// streamKeyLess orders stream keys deterministically (ack flushes must
// send in a reproducible order under the deterministic simulator).
func streamKeyLess(a, b streamKey) bool {
	if a.peer != b.peer {
		return a.peer < b.peer
	}
	return a.kind < b.kind
}

// maxRecvPending bounds the out-of-order set of one receive tracker; a
// mark past the bound is refused (the frame is re-sent later and marks
// again once the gap below it narrows).
const maxRecvPending = 1 << 15

// recvTracker is the receiver side of one stream: the cumulative
// watermark (every sequence ≤ watermark settled) plus the settled
// sequences above it still waiting for a gap to fill.
type recvTracker struct {
	watermark uint64
	pending   map[uint64]struct{}
}

// mark records one settled sequence, advances the watermark over any
// now-contiguous prefix, and reports whether seq was recorded now: not
// if it had settled already or the bound refused it. The next sequence
// in line is never refused — it leaves the set at once, with the prefix
// it completes: a full set drains.
func (t *recvTracker) mark(seq uint64) bool {
	if seq <= t.watermark {
		return false
	}
	if _, ok := t.pending[seq]; ok || (len(t.pending) >= maxRecvPending && seq != t.watermark+1) {
		return false
	}
	if t.pending == nil {
		t.pending = make(map[uint64]struct{})
	}
	t.pending[seq] = struct{}{}
	for {
		if _, ok := t.pending[t.watermark+1]; !ok {
			return true
		}
		t.watermark++
		delete(t.pending, t.watermark)
	}
}

// streams is the per-site retirement-stream state: one instance per
// site, shared by every shard. Its mutex is a leaf in the lock
// order (shard r.mu → st.mu): nothing is called while holding it, so
// shards contend only for the few loads/stores below.
type streams struct {
	mu sync.Mutex
	// send and recv are the per-(peer, stream) retirement-stream states:
	// the last assigned sequence on the send side, cumulative settle
	// watermarks on the receive side (DESIGN.md §3.2).
	send map[streamKey]uint64
	recv map[streamKey]*recvTracker
	// dirty are the receive streams whose watermark must be (re-)acked:
	// site-wide like the watermarks, so a delivery that reaches several
	// shards is acknowledged once, by whichever shard flushes next.
	dirty map[streamKey]struct{}
	// epoch counts this site's recoveries, piggybacked on FrameAcks.
	epoch uint64
	// peerEpoch is the site's view of each peer's recovery epoch, from
	// the FrameAcks it received; volatile (DESIGN.md §3.2).
	peerEpoch map[ids.SiteID]uint64
	// mint numbers identities created by this site on behalf of others.
	mint uint64
	// fstats counts the retirement activity.
	fstats FrameStats
}

func newStreams() *streams {
	return &streams{
		send:      make(map[streamKey]uint64),
		recv:      make(map[streamKey]*recvTracker),
		dirty:     make(map[streamKey]struct{}),
		peerEpoch: make(map[ids.SiteID]uint64),
	}
}

// dirtyRecv returns (creating if needed) the receive-side tracker of
// stream k and marks the stream for acknowledgement. Caller holds st.mu.
func (st *streams) dirtyRecv(k streamKey) *recvTracker {
	t := st.recv[k]
	if t == nil {
		t = &recvTracker{}
		st.recv[k] = t
	}
	st.dirty[k] = struct{}{}
	return t
}

// deliveryRefused counts one delivery dropped because its write-ahead
// append failed. Takes the leaf st.mu itself.
func (st *streams) deliveryRefused() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.fstats.DeliveriesRefused++
}

// nextSeqLocked draws the next sequence of the (peer, kind) stream: a
// frame's first and only draw, since a re-send ships the retained frame
// under the sequence it carries. Caller holds r.mu.
func (r *shard) nextSeqLocked(peer ids.SiteID, kind core.Stream) uint64 {
	st := r.site.st
	k := streamKey{peer: peer, kind: kind}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.send[k]++
	return st.send[k]
}

// markRecvLocked records the settlement of one tracked inbound frame
// and schedules a FrameAck flush for its stream — also on duplicates,
// which re-sends the unchanged watermark and heals a lost ack. It
// reports whether a mutator frame is to be applied: an untracked one
// always (nothing ever re-sends it), a tracked one iff its sequence was
// recorded now (DESIGN.md §3.2). Caller holds r.mu.
func (r *shard) markRecvLocked(peer ids.SiteID, kind core.Stream, seq uint64) bool {
	if seq == 0 || kind == 0 {
		return true
	}
	st := r.site.st
	st.mu.Lock()
	fresh := st.dirtyRecv(streamKey{peer: peer, kind: kind}).mark(seq)
	st.mu.Unlock()
	return fresh
}

// flushAcksLocked emits one FrameAck per dirty stream, in deterministic
// order. The dirty set is site-wide, like the watermarks, so the flush
// acknowledges what sibling shards settled too: a delivery that reaches
// several shards draws one ack per stream, not one per shard. Caller
// holds r.mu.
func (r *shard) flushAcksLocked() {
	st := r.site.st
	st.mu.Lock()
	if len(st.dirty) == 0 {
		st.mu.Unlock()
		return
	}
	keys := make([]streamKey, 0, len(st.dirty))
	for k := range st.dirty {
		keys = append(keys, k)
	}
	clear(st.dirty)
	sort.Slice(keys, func(i, j int) bool { return streamKeyLess(keys[i], keys[j]) })
	acks := make([]wire.FrameAck, len(keys))
	for i, k := range keys {
		acks[i] = wire.FrameAck{Stream: k.kind, Seq: st.recv[k].watermark, Epoch: st.epoch}
	}
	st.fstats.AcksSent += len(acks)
	st.mu.Unlock()
	for i, k := range keys {
		r.emitLocked(k.peer, acks[i])
	}
}

// applyAck applies one cumulative acknowledgement from peer, bare or
// out of an envelope: counted once, checked against the site's view of
// the peer's epoch (a change is a restart; first contact is not), then
// applied to every open shard in index order, one shard lock at a time.
// It takes the event lock, so it never interleaves with a replay or a
// checkpoint, and journals nothing: an ack changes only re-send
// bookkeeping, and a crash that forgets it is a lost ack (DESIGN.md
// §3.2).
func (s *Site) applyAck(peer ids.SiteID, m wire.FrameAck) {
	s.lockEvent()
	defer s.unlockEvent()
	s.st.mu.Lock()
	s.st.fstats.AcksReceived++
	last, seen := s.st.peerEpoch[peer]
	s.st.peerEpoch[peer] = m.Epoch
	s.st.mu.Unlock()
	restarted := seen && last != m.Epoch
	for _, r := range s.shards {
		r.mu.Lock()
		if !r.closed {
			r.applyAckLocked(peer, m, restarted)
		}
		r.mu.Unlock()
	}
}

// applyAckLocked is this shard's part of applyAck: a peer restart
// re-arms every row this shard holds bound for the peer and unmarks the
// engine's out-edges into it, and the watermark retires the covered
// rows of its stream exactly. An ack of the untracked stream covers
// nothing. Caller holds r.mu.
func (r *shard) applyAckLocked(peer ids.SiteID, m wire.FrameAck, restarted bool) {
	if restarted {
		r.engine.PeerRestarted(peer)
		for i := range r.retained {
			r.retained[i].ResetPeer(peer)
		}
	}
	if m.Stream < core.StreamMut || m.Stream > core.StreamDestroy {
		return
	}
	n := r.ledger(m.Stream).Ack(peer, m.Seq)
	switch {
	case n == 0:
	case m.Stream != core.StreamMut:
		r.counts.RowsRetired += n
	default:
		st := r.site.st
		st.mu.Lock()
		st.fstats.FramesRetired += n
		st.mu.Unlock()
		if ao, ok := r.site.opts.Observer.(AckObserver); ok {
			ao.FrameRetired(r.site.id, peer, core.StreamMut, n)
		}
	}
}

// resendLocked re-ships the unacknowledged, damper-due retained frames
// during this shard's refresh round — the due Ē and finalisation
// bundles, then the due asserts, then the due mutator frames — and
// counts the re-sends and the ones the dampers held back: the mutator
// frames' in FrameStats, the others' in the engine counters
// (Site.EngineStats). Caller holds r.mu.
func (r *shard) resendLocked() {
	for _, s := range [...]core.Stream{core.StreamDestroy, core.StreamAssert, core.StreamMut} {
		sent, held := r.ledger(s).Due(r.emitLocked)
		switch s {
		case core.StreamDestroy:
			r.counts.DestroysSent += sent
			r.counts.DestroyResends += sent
			r.counts.ResendsSuppressed += held
		case core.StreamAssert:
			r.counts.AssertResends += sent
			r.counts.ResendsSuppressed += held
		default:
			st := r.site.st
			st.mu.Lock()
			st.fstats.OutboxResends += sent
			st.fstats.ResendsSuppressed += held
			st.mu.Unlock()
		}
	}
}

// FrameStats returns the site-level retirement counters with the outbox
// gauge summed across shards.
func (s *Site) FrameStats() FrameStats {
	s.st.mu.Lock()
	fs := s.st.fstats
	s.st.mu.Unlock()
	fs.OutboxRetained = 0
	for _, r := range s.shards {
		r.mu.Lock()
		fs.OutboxRetained += r.ledger(core.StreamMut).Len()
		r.mu.Unlock()
	}
	return fs
}
