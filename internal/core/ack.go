package core

import (
	"causalgc/internal/ids"
)

// Stream identifies one acknowledged-retirement stream between a pair of
// sites (DESIGN.md §3.2). Every re-sendable frame a site ships carries a
// sequence number drawn from the per-(destination, stream) counter of its
// sender; the receiver acknowledges cumulatively per (sender-site,
// stream) with a FrameAck watermark, and the sender retires the retained
// state covered by the watermark — outbox frames, assert-journal rows,
// destroyed-edge bundles and legacy finalisation bundles stop being
// re-shipped exactly, instead of being re-sent forever or silently
// evicted.
type Stream uint8

// The four retirement streams. Stream zero means "untracked": local
// deliveries and frames from senders that retain nothing.
const (
	// StreamMut covers the retained outbound mutator frames of the site
	// outbox (Create, RefTransfer).
	StreamMut Stream = iota + 1
	// StreamAssert covers journaled edge-asserts (positive and negative).
	StreamAssert
	// StreamDestroy covers edge-destruction bundles held in on-behalf
	// rows (own column Ē), re-shipped by Refresh until acknowledged.
	StreamDestroy
	// StreamLegacy covers the retained finalisation bundles of removed
	// processes.
	StreamLegacy
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
	case StreamLegacy:
		return "legacy"
	}
	return "untracked"
}

// ResendBackoffCap is the ceiling, in refresh rounds, of the exponential
// re-send damper.
const ResendBackoffCap = 64

// Backoff is the per-retained-item re-send damper: an unacknowledged
// item is re-shipped on the first refresh round after it was sent, then
// at exponentially growing round intervals (1, 2, 4, ... up to
// ResendBackoffCap), so long-lived systems stop re-shipping the same rows
// every round while a genuinely lost frame is still retried promptly.
// The damper is deliberately not persisted: recovery resets it, so a
// restarted site re-ships everything once and the peers re-converge.
// Exported for the site runtime's outbox, which dampers its mutator
// frames on the same schedule as the engine's retained rows.
type Backoff struct {
	attempts uint8
	due      uint64 // first refresh round the next re-send is due
}

// Ready reports whether a re-send is due at the given refresh round.
func (b *Backoff) Ready(round uint64) bool { return round >= b.due }

// Bump schedules the next re-send after a send at the given round.
func (b *Backoff) Bump(round uint64) {
	interval := uint64(1)
	if b.attempts < 62 {
		b.attempts++
	}
	if b.attempts > 1 {
		interval = uint64(1) << (b.attempts - 1)
	}
	if interval > ResendBackoffCap {
		interval = ResendBackoffCap
	}
	b.due = round + interval
}

// Reset re-arms the item for immediate re-send (topology change, peer
// restart).
func (b *Backoff) Reset() { *b = Backoff{} }

// edgeKey identifies a destroyed edge whose Ē bundle is re-shipped until
// the target site acknowledges it.
type edgeKey struct {
	holder, target ids.ClusterID
}

// destroyState tracks the retirement of one destroyed remote edge's
// bundle: the stream sequence its frame carries (stable across re-sends,
// so a re-send fills the same receiver-side gap), whether the target
// site has acknowledged it, and the re-send damper.
type destroyState struct {
	seq   uint64
	acked bool
	bo    Backoff
}

// assertState is the value of one assert-journal row: the asserted stamp
// (zero for negative asserts), the row's stream sequence, and the
// re-send damper.
type assertState struct {
	stamp uint64
	seq   uint64
	bo    Backoff
}
