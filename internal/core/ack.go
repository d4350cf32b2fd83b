package core

import (
	"sort"

	"causalgc/internal/ids"
)

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
// The damper is deliberately not persisted: recovery resets it, so a
// restarted site re-ships everything once and the peers re-converge.
type damper struct {
	attempts uint8
	due      uint64 // first refresh round the next re-send is due
}

// ready reports whether a re-send is due at the given refresh round.
func (b *damper) ready(round uint64) bool { return round >= b.due }

// bump schedules the next re-send after a send at the given round.
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
// not yet covered by the peer's cumulative FrameAck — each with its key,
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
// nothing is lost. Walks (Due, Each) run in retention order, oldest
// first, unless less orders the keys; both are replay-exact, and Each
// exports what a Put per row restores. Not safe for concurrent use.
type Ledger[K comparable, V any] struct {
	less func(a, b K) bool // walk order over keys, when not retention

	rows map[K]*row[K, V]
	// peers rings each peer's rows by ascending sequence through a
	// sentinel kept once the peer is known: its above is the oldest.
	peers map[ids.SiteID]*row[K, V]
	born  uint64 // retention counter
}

// row is one outstanding retained row.
type row[K comparable, V any] struct {
	key          K
	val          V
	peer         ids.SiteID
	seq          uint64 // drawn by the first send, never zero
	bo           damper
	born         uint64
	below, above *row[K, V]
}

// NewLedger creates an empty ledger.
func NewLedger[K comparable, V any]() *Ledger[K, V] {
	return &Ledger[K, V]{rows: make(map[K]*row[K, V]), peers: make(map[ids.SiteID]*row[K, V])}
}

// Len is the number of outstanding rows.
func (l *Ledger[K, V]) Len() int { return len(l.rows) }

// Put retains val under key as shipped to peer under the non-zero
// stream sequence seq its first send drew. A key is put once: the row
// it makes leaves only through Ack.
func (l *Ledger[K, V]) Put(key K, peer ids.SiteID, seq uint64, val V) {
	l.born++
	r := &row[K, V]{key: key, val: val, peer: peer, seq: seq, born: l.born}
	l.rows[key] = r
	l.link(r)
}

// before is the walk order: the key order when set, else retention.
func (l *Ledger[K, V]) before(a, b *row[K, V]) bool {
	if l.less != nil {
		return l.less(a.key, b.key)
	}
	return a.born < b.born
}

// link inserts r into its peer's ring, searching from the high end:
// sequences are drawn from a counter, so a new row almost always belongs
// there.
func (l *Ledger[K, V]) link(r *row[K, V]) {
	ring := l.peers[r.peer]
	if ring == nil {
		ring = &row[K, V]{}
		ring.below, ring.above = ring, ring
		l.peers[r.peer] = ring
	}
	at := ring.below
	for at != ring && at.seq > r.seq {
		at = at.below
	}
	r.below, r.above = at, at.above
	at.above.below, at.above = r, r
}

// remove takes r out of the ledger.
func (l *Ledger[K, V]) remove(r *row[K, V]) {
	delete(l.rows, r.key)
	r.below.above, r.above.below = r.above, r.below
}

// Ack retires every row bound for peer whose sequence the cumulative
// watermark covers, and reports how many.
func (l *Ledger[K, V]) Ack(peer ids.SiteID, watermark uint64) int {
	n := 0
	if ring := l.peers[peer]; ring != nil {
		// The sentinel's zero sequence ends the walk with the rows.
		for r := ring.above; r.seq != 0 && r.seq <= watermark; r = ring.above {
			l.remove(r)
			n++
		}
	}
	return n
}

// ResetPeer re-arms the damper of every row bound for peer, so the next
// round re-ships them all (the peer restarted and may have lost
// undurable state).
func (l *Ledger[K, V]) ResetPeer(peer ids.SiteID) {
	if ring := l.peers[peer]; ring != nil {
		for r := ring.above; r != ring; r = r.above {
			r.bo = damper{}
		}
	}
}

// walk returns the outstanding rows in walk order.
func (l *Ledger[K, V]) walk() []*row[K, V] {
	rows := make([]*row[K, V], 0, len(l.rows))
	for _, r := range l.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return l.before(rows[i], rows[j]) })
	return rows
}

// Due is one refresh round's re-send walk: every row whose damper allows
// a re-send at round is handed to send, which ships it under its
// sequence, and damped further; the rest are held back. It reports both
// counts.
func (l *Ledger[K, V]) Due(round uint64, send func(key K, val V, seq uint64)) (sent, held int) {
	for _, r := range l.walk() {
		if !r.bo.ready(round) {
			held++
			continue
		}
		sent++
		send(r.key, r.val, r.seq)
		r.bo.bump(round)
	}
	return sent, held
}

// Each visits the outstanding rows in walk order: the export order, which
// a Put per row restores.
func (l *Ledger[K, V]) Each(visit func(key K, val V, seq uint64)) {
	for _, r := range l.walk() {
		visit(r.key, r.val, r.seq)
	}
}

// edgeKey identifies one destruction of an edge of the global root
// graph: a dropped edge whose Ē bundle is re-shipped until the target
// site acknowledges it, or a removed holder's edge whose finalisation
// bundle is. seq is the bundle's destroy-stream sequence, so an edge
// destroyed, re-formed and destroyed again holds one row per
// destruction until each is acknowledged.
type edgeKey struct {
	holder, target ids.ClusterID
	seq            uint64
}
