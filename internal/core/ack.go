package core

import "causalgc/internal/ids"

// Stream identifies one acknowledged-retirement stream between a pair of
// sites (DESIGN.md §3.2). Every re-sendable frame a site ships carries a
// sequence number drawn from the per-(destination, stream) counter of its
// sender; the receiver acknowledges cumulatively per (sender-site,
// stream) with a FrameAck watermark, and the sender retires the retained
// state covered by the watermark — outbox frames, assert-journal rows
// and edge-destruction bundles stop being re-shipped exactly, instead of
// being re-sent forever.
type Stream uint8

// The three retirement streams. Stream zero means "untracked": local
// deliveries and frames from senders that retain nothing.
const (
	// StreamMut covers the retained outbound mutator frames of the site
	// outbox (Create, RefTransfer).
	StreamMut Stream = iota + 1
	// StreamAssert covers journaled edge-asserts (positive and negative).
	StreamAssert
	// StreamDestroy covers the edge-destruction bundles (own column Ē) of
	// destroyed edges, finalisation bundles included, re-shipped by
	// Refresh until acknowledged.
	StreamDestroy
)

// String names the stream for diagnostics and observer callbacks.
func (s Stream) String() string {
	switch s {
	case StreamMut:
		return "mut"
	case StreamAssert:
		return "assert"
	case StreamDestroy:
		return "destroy"
	}
	return "untracked"
}

// resendBackoffCap is the ceiling, in refresh rounds, of the exponential
// re-send damper.
const resendBackoffCap = 64

// damper is the per-row re-send damper: an unacknowledged row is
// re-shipped on the first refresh round after it was sent, then at
// exponentially growing round intervals (1, 2, 4, ... up to
// resendBackoffCap), so long-lived systems stop re-shipping the same rows
// every round while a genuinely lost frame is still retried promptly.
// Its rounds are its ledger's Due walks, one per refresh round. The
// damper is deliberately not persisted: recovery resets it, so a
// restarted site re-ships everything once and the peers re-converge.
type damper struct {
	attempts uint8
	due      uint64 // first walk the next re-send is due at
}

// ready reports whether a re-send is due at the given walk.
func (b *damper) ready(round uint64) bool { return round >= b.due }

// bump schedules the next re-send after a send at the given walk.
func (b *damper) bump(round uint64) {
	interval := uint64(1)
	if b.attempts < 62 {
		b.attempts++
	}
	if b.attempts > 1 {
		interval = uint64(1) << (b.attempts - 1)
	}
	if interval > resendBackoffCap {
		interval = resendBackoffCap
	}
	b.due = round + interval
}

// Ledger is the sender half of acknowledged retirement (DESIGN.md §3.2),
// written once: the retained rows of one stream that are outstanding —
// not yet covered by the peer's cumulative FrameAck — each with its
// payload, destination peer, stream sequence (drawn by its first send
// and stable across re-sends, so a re-send fills the same receiver-side
// gap) and re-send damper. The engine holds two (asserts,
// edge-destruction bundles), each site shard one (the outbox).
//
// A row is put once and leaves only when a watermark covers it: no
// other path takes a row out, so no sequence a peer waits for is ever
// abandoned. Acknowledged is not outstanding: every operation costs what
// is outstanding, never what the stream has carried, and nothing
// remembers an acknowledgement — the payload went with the row.
// Outstanding is retained: there is no cap, so a row toward a peer that
// never answers stays until it does (the depth gauges show it), and
// nothing is lost. A row sits in exactly two lists: its peer's ring by
// ascending sequence, which Ack retires a prefix of, and the retention
// list, oldest first, which Due and Each walk. Both walks are
// replay-exact, and Each exports what a Put per row restores. Not safe
// for concurrent use.
type Ledger[V any] struct {
	// rings holds one sentinel per known peer, kept once the peer is
	// known: its above is the peer's oldest row by sequence.
	rings []*row[V]
	kept  row[V] // the retention list's sentinel: its next is the oldest
	n     int
	walks uint64 // Due walks so far: the dampers' time base
}

// row is one outstanding retained row.
type row[V any] struct {
	val          V
	peer         ids.SiteID
	seq          uint64 // drawn by the first send, never zero
	bo           damper
	below, above *row[V] // the peer's ring
	prev, next   *row[V] // the retention list
}

// NewLedger creates an empty ledger.
func NewLedger[V any]() *Ledger[V] {
	l := &Ledger[V]{}
	l.kept.prev, l.kept.next = &l.kept, &l.kept
	return l
}

// Len is the number of outstanding rows.
func (l *Ledger[V]) Len() int { return l.n }

// Put retains val as shipped to peer under the non-zero stream sequence
// seq its first send drew. The row leaves only through Ack.
func (l *Ledger[V]) Put(peer ids.SiteID, seq uint64, val V) {
	r := &row[V]{val: val, peer: peer, seq: seq}
	r.prev, r.next = l.kept.prev, &l.kept
	l.kept.prev.next, l.kept.prev = r, r
	l.n++
	ring := l.ring(peer)
	if ring == nil {
		ring = &row[V]{peer: peer}
		ring.below, ring.above = ring, ring
		l.rings = append(l.rings, ring)
	}
	// Search from the high end: sequences are drawn from a counter, so a
	// new row almost always belongs there.
	at := ring.below
	for at != ring && at.seq > seq {
		at = at.below
	}
	r.below, r.above = at, at.above
	at.above.below, at.above = r, r
}

// ring returns peer's sentinel, or nil while no row was ever put for it.
func (l *Ledger[V]) ring(peer ids.SiteID) *row[V] {
	for _, ring := range l.rings {
		if ring.peer == peer {
			return ring
		}
	}
	return nil
}

// Ack retires every row bound for peer whose sequence the cumulative
// watermark covers, and reports how many.
func (l *Ledger[V]) Ack(peer ids.SiteID, watermark uint64) int {
	n := 0
	if ring := l.ring(peer); ring != nil {
		// The sentinel's zero sequence ends the walk with the rows.
		for r := ring.above; r.seq != 0 && r.seq <= watermark; r = ring.above {
			r.below.above, r.above.below = r.above, r.below
			r.prev.next, r.next.prev = r.next, r.prev
			n++
		}
	}
	l.n -= n
	return n
}

// ResetPeer re-arms the damper of every row bound for peer, so the next
// round re-ships them all (the peer restarted and may have lost
// undurable state).
func (l *Ledger[V]) ResetPeer(peer ids.SiteID) {
	if ring := l.ring(peer); ring != nil {
		for r := ring.above; r != ring; r = r.above {
			r.bo = damper{}
		}
	}
}

// Due is one refresh round's re-send walk, in retention order: every
// row whose damper allows a re-send at this walk is handed to send,
// which ships it under its sequence, and damped further; the rest are
// held back. It reports both counts. The walks are the dampers' rounds,
// so a ledger is walked once per refresh round.
func (l *Ledger[V]) Due(send func(peer ids.SiteID, val V, seq uint64)) (sent, held int) {
	l.walks++
	for r := l.kept.next; r != &l.kept; r = r.next {
		if !r.bo.ready(l.walks) {
			held++
			continue
		}
		sent++
		send(r.peer, r.val, r.seq)
		r.bo.bump(l.walks)
	}
	return sent, held
}

// Each visits the outstanding rows in retention order: the export order,
// which a Put per row restores.
func (l *Ledger[V]) Each(visit func(peer ids.SiteID, val V, seq uint64)) {
	for r := l.kept.next; r != &l.kept; r = r.next {
		visit(r.peer, r.val, r.seq)
	}
}

// edgeMsg is a retained control message with the edge it travels: the
// payload of an assert or destroy ledger row.
type edgeMsg[M any] struct {
	from, to ids.ClusterID
	msg      M
}
