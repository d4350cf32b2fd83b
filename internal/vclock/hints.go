package vclock

import (
	"strings"

	"causalgc/internal/ids"
)

// HintSet tracks pending edge-introduction hints: col → introducer → the
// introducer's latest forwarding sequence number, stored as a live stamp.
//
// A hint (col, intro, seq) means: "process intro, at its event seq,
// forwarded a reference such that the edge col→owner may exist or be about
// to exist". Hints are the lazy third-party entries of §3.4 made sound:
// they are conservative liveness (they block a garbage verdict) until the
// edge's source resolves them authoritatively — via an edge-assert issued
// after the forwarded reference arrived, or via the destruction bundle's
// processed-introductions record.
//
// Resolution is per (col, intro) pair and sequence-bounded: clearing up to
// seq n removes pending hints with seq ≤ n and suppresses stale re-arms
// (old gossip), while a genuinely new forwarding (seq > n) re-arms. This
// is what closes the re-creation race: an Ē stamp can never silently mask
// a newer in-flight introduction.
//
// Hints are stamped: the sequence number stored per (col, intro) IS the
// introducer's event stamp for the forwarding, drawn from the
// introducer's totally-ordered clock. That stamp is what makes the two
// resolution paths provably causally ordered:
//
//   - Clear — the edge's source speaks. An edge-assert or a destruction
//     bundle from col carries (intro, seq) records the source consumed,
//     issued causally after the forwarded reference arrived.
//   - Expire — the introduction is provably dead. The forwarded
//     reference was delivered to col's site and discarded there without
//     an edge ever forming (holder object already collected, cluster
//     tombstoned), so no event of col can ever consume it. col's site
//     reports this with a stampless (negative) assert for exactly
//     (intro, seq); anything col's edge did do — form earlier, form
//     later under a fresher forwarding — carries its own stamp or its
//     own seq and is unaffected by the expiry bound.
//
// Both record the same resolution bound, so stale gossip can re-arm
// neither a resolved nor an expired introduction.
type HintSet struct {
	pending map[ids.ClusterID]Vector // col → intro → seq
	cleared map[ids.ClusterID]Vector // col → intro → resolved-up-to seq
}

// NewHintSet returns an empty hint set.
func NewHintSet() *HintSet {
	return &HintSet{
		pending: make(map[ids.ClusterID]Vector),
		cleared: make(map[ids.ClusterID]Vector),
	}
}

// Arm records hint (col, intro, seq) unless it was already resolved up to
// seq. It reports whether the pending set changed.
func (h *HintSet) Arm(col, intro ids.ClusterID, seq uint64) bool {
	if seq == 0 {
		return false
	}
	if c := h.cleared[col]; c != nil && c.Get(intro).Seq >= seq {
		return false
	}
	p := h.pending[col]
	if p == nil {
		p = NewVector()
		h.pending[col] = p
	}
	return p.MergeEntry(intro, At(seq))
}

// Clear resolves hints (col, intro, ≤ seq) and remembers the resolution
// bound. It reports whether anything changed.
func (h *HintSet) Clear(col, intro ids.ClusterID, seq uint64) bool {
	c := h.cleared[col]
	if c == nil {
		c = NewVector()
		h.cleared[col] = c
	}
	changed := c.MergeEntry(intro, At(seq))
	if p := h.pending[col]; p != nil {
		if s := p.Get(intro); s != Zero && s.Seq <= seq {
			delete(p, intro)
			changed = true
			if len(p) == 0 {
				delete(h.pending, col)
			}
		}
	}
	return changed
}

// Expire is the hint-expiry rule: it clears hints (col, intro, ≤ seq)
// whose introduction is provably stale — the forwarded reference reached
// col's site and was discarded without the edge ever forming, so no word
// of col will ever consume it. The mechanism is the shared resolution
// bound (an expired introduction must suppress stale re-arms exactly
// like a consumed one); the rule — who may invoke it, and on what
// evidence — is the caller's obligation: only col's own site, for a
// delivered forwarding it discarded. It reports whether anything
// changed.
func (h *HintSet) Expire(col, intro ids.ClusterID, seq uint64) bool {
	return h.Clear(col, intro, seq)
}

// Has reports whether any hint is pending for col.
func (h *HintSet) Has(col ids.ClusterID) bool {
	return len(h.pending[col]) > 0
}

// Cols returns the columns with pending hints, sorted.
func (h *HintSet) Cols() []ids.ClusterID {
	out := make([]ids.ClusterID, 0, len(h.pending))
	for col := range h.pending {
		out = append(out, col)
	}
	ids.SortClusters(out)
	return out
}

// Empty reports whether no hints are pending.
func (h *HintSet) Empty() bool { return len(h.pending) == 0 }

// Clone returns a deep copy.
func (h *HintSet) Clone() *HintSet {
	out := NewHintSet()
	for col, v := range h.pending {
		out.pending[col] = v.Clone()
	}
	for col, v := range h.cleared {
		out.cleared[col] = v.Clone()
	}
	return out
}

// String renders pending hints deterministically: "c3<-{c2:5}".
func (h *HintSet) String() string {
	if h.Empty() {
		return "{}"
	}
	var b strings.Builder
	for i, col := range h.Cols() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(col.String())
		b.WriteString("<-")
		b.WriteString(h.pending[col].String())
	}
	return b.String()
}
