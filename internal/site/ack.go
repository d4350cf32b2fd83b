package site

import (
	"sort"
	"sync"

	"causalgc/internal/core"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
)

// This file implements the site half of the acknowledged-retirement
// protocol (DESIGN.md §3.2). The engine decides *what* is retained and
// re-sent; the site owns the wire-level bookkeeping: per-(peer, stream)
// sequence counters on the send side, cumulative watermarks on the
// receive side, FrameAck emission, StreamAdvance floor advisories, and
// the outbox of unacknowledged mutator frames.
//
// The stream state lives in a streams table shared by every shard of
// the site (DESIGN.md §3.4): a remote peer tracks ONE cumulative
// watermark per stream from this site, so two shards drawing sequences
// toward the same peer must draw from the same counter — per-shard
// counters would collide at the peer and silently retire undelivered
// frames.

// FrameStats counts the site-level retirement activity: the operator's
// view of how much re-send state is outstanding, how it drains, and —
// crucially — whether the hard-capped backstops ever dropped state
// (tolerated loss that used to be silent).
type FrameStats struct {
	// OutboxRetained is the current number of unacknowledged outbound
	// mutator frames (gauge).
	OutboxRetained int
	// OutboxEvicted counts frames dropped at the outbox hard cap before
	// acknowledgement: tolerated loss, surfaced here and through the
	// optional AckObserver.
	OutboxEvicted int
	// OutboxResends counts outbox frames re-shipped by Refresh.
	OutboxResends int
	// ResendsSuppressed counts outbox re-sends the damper held back.
	ResendsSuppressed int
	// AcksSent and AcksReceived count FrameAck traffic.
	AcksSent, AcksReceived int
	// FramesRetired counts outbox frames retired by cumulative acks
	// (engine-side rows are counted in EngineStats.RowsRetired).
	FramesRetired int
	// AdvancesSent counts StreamAdvance floor advisories.
	AdvancesSent int
	// DeliveriesRefused counts incoming deliveries dropped unapplied and
	// unacknowledged because their write-ahead append failed: tolerated
	// loss (the sender re-ships what it retains), but a failing disk
	// makes the site a black hole, so it is counted. Per session: not
	// part of the snapshot.
	DeliveriesRefused int
}

// AckObserver is an optional extension of Observer: implementations
// that also satisfy it receive retirement events. Like Observer
// callbacks, these run with a shard mutex held and must not call back
// into the Site.
type AckObserver interface {
	// FrameEvicted fires when the outbox hard cap drops an
	// unacknowledged mutator frame bound for peer: tolerated loss.
	FrameEvicted(site ids.SiteID, peer ids.SiteID, stream core.Stream, frames int)
	// FrameRetired fires when a cumulative FrameAck from peer retires
	// outbox frames exactly.
	FrameRetired(site ids.SiteID, peer ids.SiteID, stream core.Stream, frames int)
}

// streamKey names one retirement stream between this site and a peer.
type streamKey struct {
	peer ids.SiteID
	kind core.Stream
}

// streamKeyLess orders stream keys deterministically (ack flushes and
// floor advisories must send in a reproducible order under the
// deterministic simulator).
func streamKeyLess(a, b streamKey) bool {
	if a.peer != b.peer {
		return a.peer < b.peer
	}
	return a.kind < b.kind
}

// sendStream is the sender side of one stream: the sequence counter and
// the peer's highest cumulative acknowledgement.
type sendStream struct {
	nextSeq uint64
	ackedTo uint64
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
// if it had settled already (a floor advisory settles what it skips) or
// the bound refused it. The next sequence in line is never refused — it
// leaves the set at once, with the prefix it completes: a full set drains.
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

// advance raises the watermark to floor-1 (a StreamAdvance advisory:
// everything below floor is acknowledged-or-abandoned at the sender)
// and prunes the out-of-order set.
func (t *recvTracker) advance(floor uint64) bool {
	if floor == 0 || floor-1 <= t.watermark {
		return false
	}
	t.watermark = floor - 1
	for seq := range t.pending {
		if seq <= t.watermark {
			delete(t.pending, seq)
		}
	}
	// The advance may have made pending sequences contiguous.
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
	// sequence counters and acknowledged watermarks on the send side,
	// cumulative settle watermarks on the receive side (DESIGN.md §3.2).
	send map[streamKey]*sendStream
	recv map[streamKey]*recvTracker
	// peerEpoch is the last seen recovery epoch per peer; a change
	// re-arms the re-send dampers for that peer.
	peerEpoch map[ids.SiteID]uint64
	// epoch counts this site's recoveries, piggybacked on FrameAcks.
	epoch uint64
	// refreshRound is the damper time base for outbox re-sends.
	refreshRound uint64
	// mint numbers identities created by this site on behalf of others.
	mint uint64
	// fstats counts the retirement activity.
	fstats FrameStats
}

func newStreams() *streams {
	return &streams{
		send:      make(map[streamKey]*sendStream),
		recv:      make(map[streamKey]*recvTracker),
		peerEpoch: make(map[ids.SiteID]uint64),
	}
}

// deliveryRefused counts one delivery dropped because its write-ahead
// append failed. Takes the leaf st.mu itself.
func (st *streams) deliveryRefused() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.fstats.DeliveriesRefused++
}

// sendStream returns (creating if needed) the send-side stream state.
// Caller holds st.mu.
func (st *streams) sendStream(peer ids.SiteID, kind core.Stream) *sendStream {
	k := streamKey{peer: peer, kind: kind}
	s := st.send[k]
	if s == nil {
		s = &sendStream{}
		st.send[k] = s
	}
	return s
}

// assignSeqLocked returns seq unchanged when non-zero (a re-send under
// its original sequence) and otherwise assigns the next sequence of the
// (peer, kind) stream. Caller holds r.mu.
func (r *shard) assignSeqLocked(peer ids.SiteID, kind core.Stream, seq uint64) uint64 {
	if seq != 0 {
		return seq
	}
	st := r.site.st
	st.mu.Lock()
	s := st.sendStream(peer, kind)
	s.nextSeq++
	seq = s.nextSeq
	st.mu.Unlock()
	return seq
}

// observeSeqLocked raises the (peer, kind) send counter to at least
// seq: applying a record's pre-drawn sequence (OpRecord.MutSeq) must
// keep the shared counter ahead of every recorded draw, or a
// post-replay draw would re-issue a sequence the peer already settled
// (a no-op on the live path, which drew it). Caller holds r.mu.
func (r *shard) observeSeqLocked(peer ids.SiteID, kind core.Stream, seq uint64) {
	if seq == 0 {
		return // a volatile site or a frameless op drew nothing
	}
	st := r.site.st
	st.mu.Lock()
	s := st.sendStream(peer, kind)
	if s.nextSeq < seq {
		s.nextSeq = seq
	}
	st.mu.Unlock()
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
	k := streamKey{peer: peer, kind: kind}
	st := r.site.st
	st.mu.Lock()
	t := st.recv[k]
	if t == nil {
		t = &recvTracker{}
		st.recv[k] = t
	}
	fresh := t.mark(seq)
	st.mu.Unlock()
	if r.dirtyAcks == nil {
		r.dirtyAcks = make(map[streamKey]struct{})
	}
	r.dirtyAcks[k] = struct{}{}
	return fresh
}

// flushAcksLocked emits one FrameAck per dirty stream, in deterministic
// order. The dirty set is per shard — the shard that settled a frame
// acknowledges it — while the watermarks are shared, so an ack emitted
// here may also cover settlements a sibling shard just made: harmless,
// acks are cumulative and receivers ignore stale ones. Caller holds
// r.mu.
func (r *shard) flushAcksLocked() {
	if len(r.dirtyAcks) == 0 {
		return
	}
	keys := make([]streamKey, 0, len(r.dirtyAcks))
	for k := range r.dirtyAcks {
		keys = append(keys, k)
	}
	r.dirtyAcks = nil
	sort.Slice(keys, func(i, j int) bool { return streamKeyLess(keys[i], keys[j]) })
	st := r.site.st
	for _, k := range keys {
		st.mu.Lock()
		t := st.recv[k]
		var ack wire.FrameAck
		ok := t != nil
		if ok {
			st.fstats.AcksSent++
			ack = wire.FrameAck{Stream: k.kind, Seq: t.watermark, Epoch: st.epoch}
		}
		st.mu.Unlock()
		if ok {
			r.emitLocked(k.peer, ack)
		}
	}
}

// handleFrameAckLocked processes a cumulative acknowledgement from
// peer: epoch changes re-arm the re-send dampers (the peer restarted
// and may have lost undurable state), and the watermark retires the
// covered retained state of THIS shard exactly. The shared ackedTo
// floor only ever rises; retirement itself is idempotent, so the same
// ack fans out to every shard and each retires its own rows. Caller
// holds r.mu.
func (r *shard) handleFrameAckLocked(peer ids.SiteID, m wire.FrameAck) {
	st := r.site.st
	st.mu.Lock()
	if r.index == 0 {
		// fstats is shared and the ack fans out to every shard: count
		// the network delivery once, not once per shard.
		st.fstats.AcksReceived++
	}
	restart := false
	if last, ok := st.peerEpoch[peer]; !ok || last != m.Epoch {
		st.peerEpoch[peer] = m.Epoch
		// A genuine restart (not first contact): re-arm everything
		// bound for the peer.
		restart = ok
	}
	s := st.sendStream(peer, m.Stream)
	if m.Seq > s.ackedTo {
		s.ackedTo = m.Seq
	}
	st.mu.Unlock()
	if restart {
		r.engine.ResetPeerBackoff(peer)
		r.outbox.ResetPeer(peer)
	}
	if m.Stream != core.StreamMut {
		r.engine.Ack(peer, m.Stream, m.Seq)
		return
	}
	if n := r.outbox.Ack(peer, m.Seq); n > 0 {
		st.mu.Lock()
		st.fstats.FramesRetired += n
		st.mu.Unlock()
		if ao, ok := r.site.opts.Observer.(AckObserver); ok {
			ao.FrameRetired(r.site.id, peer, core.StreamMut, n)
		}
	}
}

// handleAdvanceLocked processes a sender's floor advisory: sequences
// below the floor will never be (re-)sent, so the watermark skips the
// dead gap, and the refreshed watermark is acknowledged back. Caller
// holds r.mu.
func (r *shard) handleAdvanceLocked(peer ids.SiteID, m wire.StreamAdvance) {
	if m.Stream == 0 || m.Floor == 0 {
		return
	}
	k := streamKey{peer: peer, kind: m.Stream}
	st := r.site.st
	st.mu.Lock()
	t := st.recv[k]
	if t == nil {
		t = &recvTracker{}
		st.recv[k] = t
	}
	t.advance(m.Floor)
	st.mu.Unlock()
	if r.dirtyAcks == nil {
		r.dirtyAcks = make(map[streamKey]struct{})
	}
	r.dirtyAcks[k] = struct{}{}
}

// resendOutboxLocked re-ships the unacknowledged, damper-due outbox
// frames during a refresh round. Caller holds r.mu.
func (r *shard) resendOutboxLocked() {
	r.site.st.mu.Lock()
	round := r.site.st.refreshRound
	r.site.st.mu.Unlock()
	resent, suppressed := r.outbox.Due(round, func(k outKey, p netsim.Payload, seq uint64) uint64 {
		r.emitLocked(k.to, p)
		return seq
	})
	if resent+suppressed > 0 {
		r.site.st.mu.Lock()
		r.site.st.fstats.OutboxResends += resent
		r.site.st.fstats.ResendsSuppressed += suppressed
		r.site.st.mu.Unlock()
	}
}

// advanceFloors emits StreamAdvance advisories for every send stream
// whose acknowledged watermark trails the smallest sequence the site
// still retains: the gap below the floor is acknowledged-or-abandoned
// and would otherwise stall the peer's cumulative watermark forever. A
// stream's floor is the minimum over every shard's retained floor — no
// single shard knows what its siblings still retain, and a floor past a
// sibling's retained row would let the peer retire it undelivered.
// Advisories go out through shard 0. A sequence assigned concurrently
// with the pass is always above the snapshotted nextSeq, hence above
// any floor emitted here — the advisory can never cover it.
func (s *Site) advanceFloors() {
	st := s.st
	st.mu.Lock()
	keys := make([]streamKey, 0, len(st.send))
	for k := range st.send {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return streamKeyLess(keys[i], keys[j]) })
	snaps := make([]sendStream, len(keys))
	for i, k := range keys {
		snaps[i] = *st.send[k]
	}
	st.mu.Unlock()
	floors := make([]uint64, len(keys))
	for _, r := range s.shards {
		r.mu.Lock()
		for i, k := range keys {
			// This shard's floor: the head of the stream's ledger rows.
			f, ok := r.engine.RetainedFloor(k.peer, k.kind)
			if k.kind == core.StreamMut {
				f, ok = r.outbox.Floor(k.peer)
			}
			if ok && (floors[i] == 0 || f < floors[i]) {
				floors[i] = f
			}
		}
		r.mu.Unlock()
	}
	r0 := s.shards[0]
	r0.mu.Lock()
	advances := 0
	for i, k := range keys {
		sn := snaps[i]
		if sn.nextSeq == 0 {
			continue
		}
		floor := floors[i]
		if floor == 0 {
			floor = sn.nextSeq + 1
		}
		if floor-1 <= sn.ackedTo {
			continue
		}
		advances++
		r0.emitLocked(k.peer, wire.StreamAdvance{Stream: k.kind, Floor: floor})
	}
	s.unlock(r0)
	if advances > 0 {
		st.mu.Lock()
		st.fstats.AdvancesSent += advances
		st.mu.Unlock()
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
		fs.OutboxRetained += r.outbox.Len()
		r.mu.Unlock()
	}
	return fs
}
