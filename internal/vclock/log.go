package vclock

import (
	"strings"

	"causalgc/internal/ids"
)

// Log is the two-dimensional log DV_i of §3.3–§3.4, with the roles the
// paper's rows play separated so that every stamp is totally ordered
// within its edge (see DESIGN.md §2):
//
//   - The own vector holds authoritative per-edge stamps for the owner's
//     incoming edges: column q is the latest creation (live) or
//     destruction (Ē) stamp of edge q→owner, in q's clock space. The own
//     HintSet holds pending introduction hints for edges the owner has
//     heard of third-hand (§3.4 bundles and gossip) whose sources have not
//     yet spoken.
//   - VRows hold copies of other processes' own vectors (and their hint
//     columns), received from their propagations directly or relayed.
//     A row is Confirmed once received; only confirmed rows certify the
//     absence of root paths.
//   - OBRows are the §3.4 on-behalf entries the owner keeps for a remote
//     process X it references or brokered references to: the owner's own
//     authoritative stamp for its edge owner→X (Auth, column owner), the
//     forwarding hints it created (Hints: dest → forwarding seq,
//     introducer = owner), and the introductions it has processed for its
//     own edge (Processed: intro → seq), shipped with the destruction
//     bundle so the target can resolve the corresponding hints.
//
// Every row carries a version drawn from the log's counter: the one at
// which it last changed or entered the shipped set (Ship). A sender that
// remembers, per receiver, the log version of its last send ships only
// the rows above it (DESIGN.md §3, "Rows cross an edge once"). Versions
// are send-side bookkeeping, never persisted: a restored log draws them
// afresh (RestoreLog, Ship).
type Log struct {
	owner    ids.ClusterID
	own      Vector
	ownHints *HintSet
	vrows    map[ids.ClusterID]*VRow
	ob       map[ids.ClusterID]*OBRow
	// version is the last version a row drew.
	version uint64
	// shipment numbers the shipped sets NextShipment opened.
	shipment uint64
}

// VRow is a copy of another process's first-hand state.
type VRow struct {
	Auth      Vector
	HintCols  ids.ClusterSet
	Confirmed bool
	// Ver is the log version at which the row last changed or entered
	// the shipped set.
	Ver uint64
	// shipped is the shipment that last included the row (0: none).
	shipped uint64
}

// OBRow is the on-behalf record kept for one remote process.
type OBRow struct {
	// Auth holds the owner's authoritative stamps, keyed by column; by
	// construction the owner only writes its own column (its edge to the
	// row's process).
	Auth Vector
	// Hints records forwards the owner performed: dest → forwarding seq.
	Hints Vector
	// Processed records introductions the owner consumed for its own
	// edge: intro → seq.
	Processed Vector
	// Ver is the log version of the row's last OB call.
	Ver uint64
}

// NewLog creates an empty log for the given owner.
func NewLog(owner ids.ClusterID) *Log {
	return &Log{
		owner:    owner,
		own:      NewVector(),
		ownHints: NewHintSet(),
		vrows:    make(map[ids.ClusterID]*VRow),
		ob:       make(map[ids.ClusterID]*OBRow),
	}
}

// Owner returns the log's owning process.
func (l *Log) Owner() ids.ClusterID { return l.owner }

// Own returns the owner's authoritative incoming-edge vector.
func (l *Log) Own() Vector { return l.own }

// Hints returns the owner's pending introduction hints.
func (l *Log) Hints() *HintSet { return l.ownHints }

// OB returns the on-behalf row for process p, creating it on first use.
// Callers use it only to write the row, so every call draws the row a
// fresh version; PeekOB reads.
func (l *Log) OB(p ids.ClusterID) *OBRow {
	r, ok := l.ob[p]
	if !ok {
		r = &OBRow{Auth: NewVector(), Hints: NewVector(), Processed: NewVector()}
		l.ob[p] = r
	}
	r.Ver = l.bump()
	return r
}

// bump draws the next log version.
func (l *Log) bump() uint64 {
	l.version++
	return l.version
}

// Version returns the last version a row drew. A send that carries the
// log as it stands carries every row at or below it.
func (l *Log) Version() uint64 { return l.version }

// NextShipment opens a new shipped set; Ship names its members.
func (l *Log) NextShipment() { l.shipment++ }

// Ship records r as a member of the current shipped set and returns its
// version. A row the previous set did not include enters at a fresh
// version, so every receiver's mark is below it whatever the row's age.
func (l *Log) Ship(r *VRow) uint64 {
	if r.shipped == 0 || r.shipped+1 != l.shipment {
		r.Ver = l.bump()
	}
	r.shipped = l.shipment
	return r.Ver
}

// PeekOB returns the on-behalf row for p, or nil.
func (l *Log) PeekOB(p ids.ClusterID) *OBRow { return l.ob[p] }

// VRow returns the vector row for p, creating an unconfirmed empty row on
// first use.
func (l *Log) VRow(p ids.ClusterID) *VRow {
	r, ok := l.vrows[p]
	if !ok {
		r = &VRow{Auth: NewVector(), HintCols: ids.NewClusterSet()}
		l.vrows[p] = r
	}
	return r
}

// PeekVRow returns the vector row for p, or nil.
func (l *Log) PeekVRow(p ids.ClusterID) *VRow { return l.vrows[p] }

// MergeVRow merges first-hand state of process p into its row: auth
// stamps merge per edge; hint columns replace when the data came directly
// from p (p is the authority on its own pending hints) and union when
// relayed. confirm marks the row confirmed. Reports change; a changed row
// draws a fresh version.
func (l *Log) MergeVRow(p ids.ClusterID, auth Vector, hintCols []ids.ClusterID, direct, confirm bool) bool {
	r := l.VRow(p)
	changed := r.Auth.MergeAll(auth)
	if direct {
		repl := ids.NewClusterSet(hintCols...)
		if len(repl) != len(r.HintCols) {
			changed = true
		} else {
			for c := range repl {
				if !r.HintCols.Has(c) {
					changed = true
					break
				}
			}
		}
		r.HintCols = repl
	} else {
		for _, c := range hintCols {
			if r.HintCols.Add(c) {
				changed = true
			}
		}
	}
	if confirm && !r.Confirmed {
		r.Confirmed = true
		changed = true
	}
	if changed {
		r.Ver = l.bump()
	}
	return changed
}

// Confirmed reports whether p's vector row is confirmed.
func (l *Log) Confirmed(p ids.ClusterID) bool {
	r := l.vrows[p]
	return r != nil && r.Confirmed
}

// Processes returns every process mentioned as a row key, sorted.
func (l *Log) Processes() []ids.ClusterID {
	set := ids.NewClusterSet(l.owner)
	for p := range l.vrows {
		set.Add(p)
	}
	for p := range l.ob {
		set.Add(p)
	}
	return set.Sorted()
}

// liveColsOf visits the live predecessor columns of process q as seen
// from this log: the union of q's row (auth live or hinted) and the
// owner's on-behalf knowledge of edges into q. A column may be visited
// more than once; the closure expands it once.
func (l *Log) liveColsOf(q ids.ClusterID, visit func(col ids.ClusterID)) {
	if q == l.owner {
		visitLive(l.own, visit)
		for col := range l.ownHints.pending {
			visit(col)
		}
		return
	}
	if r := l.vrows[q]; r != nil {
		visitLive(r.Auth, visit)
		for col := range r.HintCols {
			visit(col)
		}
	}
	if ob := l.ob[q]; ob != nil {
		visitLive(ob.Auth, visit)
		// A forwarding hint names the edge col→q the owner brokered.
		visitLive(ob.Hints, visit)
	}
}

// visitLive visits the columns of v that hold a live stamp.
func visitLive(v Vector, visit func(col ids.ClusterID)) {
	for col, s := range v {
		if s.Live() {
			visit(col)
		}
	}
}

// Closure computes the owner's view of its causal ancestry: the paper's
// ComputeV (Fig 6) as a reachability walk over the locally held rows —
// "recursive invocations do not involve any remote invocation" (§3.3).
//
// The walk starts from the owner's direct predecessors (live or hinted
// columns of the own vector) and follows live per-edge stamps backwards
// through the predecessor rows held locally. A column is expanded when
// any row holds a live or hinted stamp for it, so across paths live
// wins: one path's Ē never masks another path's live edge (DESIGN.md
// interpretation #3). Expansion through Ē or zero stamps is cut off,
// implementing the Λ test ("treated as if no edge creation event had
// ever been sent", §3.2). Actual roots are terminal.
//
// The result records whether any live actual-root column was reached and
// whether every expanded non-root process was backed by a confirmed
// vector row; only a complete closure may certify garbage. The ignored
// clock argument stays while the frozen benchmark passes it.
func (l *Log) Closure(_ uint64) ClosureResult {
	res := ClosureResult{
		Complete: true,
		Expanded: ids.NewClusterSet(l.owner),
		// The owner itself may be an actual root: alive by fiat.
		LiveRoot: l.owner.IsRoot(),
	}
	var work []ids.ClusterID
	visit := func(q ids.ClusterID) {
		if !res.Expanded.Add(q) {
			return
		}
		if q.IsRoot() {
			res.LiveRoot = true
			return
		}
		if !l.Confirmed(q) {
			res.Complete = false
		}
		work = append(work, q)
	}
	l.liveColsOf(l.owner, visit)
	for len(work) > 0 {
		q := work[len(work)-1]
		work = work[:len(work)-1]
		l.liveColsOf(q, visit)
	}
	return res
}

// ClosureResult is the outcome of Log.Closure: the removal test's
// verdict and the rows it consulted.
type ClosureResult struct {
	// LiveRoot reports that a live edge from an actual root was reached:
	// ∃k: ¬Λ(V[k]) ∧ root(k).
	LiveRoot bool
	// Complete is true when every expanded non-root process was backed by
	// a confirmed vector row: the realisation of the paper's "is the
	// actual full vector-time" guard (§3.3).
	Complete bool
	// Expanded lists the processes whose rows were consulted.
	Expanded ids.ClusterSet
}

// Garbage reports the paper's removal test on a closure: the owner is
// garbage when no actual root is reachable backwards over live edges and
// the closure is complete.
func (c ClosureResult) Garbage() bool {
	return c.Complete && !c.LiveRoot
}

// String renders the whole log deterministically.
func (l *Log) String() string { return l.Render(nil) }

// Render renders the log with a fixed column order when order is non-nil
// (Fig 8 style), or with sparse vectors otherwise. Confirmed vector rows
// are marked '*'; on-behalf rows show auth/hint vectors.
func (l *Log) Render(order []ids.ClusterID) string {
	fmtVec := func(v Vector) string {
		if order != nil {
			return v.Render(order)
		}
		return v.String()
	}
	var b strings.Builder
	b.WriteString("DV[" + l.owner.String() + "]! = " + fmtVec(l.own))
	if !l.ownHints.Empty() {
		b.WriteString(" hints " + l.ownHints.String())
	}
	for _, p := range l.Processes() {
		if p == l.owner {
			continue
		}
		if r := l.vrows[p]; r != nil {
			mark := " "
			if r.Confirmed {
				mark = "*"
			}
			b.WriteString("\nDV[" + p.String() + "]" + mark + " = " + fmtVec(r.Auth))
			if len(r.HintCols) > 0 {
				b.WriteString(" hintcols ")
				for i, c := range r.HintCols.Sorted() {
					if i > 0 {
						b.WriteByte(' ')
					}
					b.WriteString(c.String())
				}
			}
		}
		if ob := l.ob[p]; ob != nil {
			b.WriteString("\nob[" + p.String() + "]  = " + fmtVec(ob.Auth))
			if len(ob.Hints) > 0 {
				b.WriteString(" fwd " + fmtVec(ob.Hints))
			}
		}
	}
	return b.String()
}

// Clone returns a deep copy of the log, versions included
// (snapshot/trace tooling only).
func (l *Log) Clone() *Log {
	out := NewLog(l.owner)
	out.own = l.own.Clone()
	out.ownHints = l.ownHints.Clone()
	out.version, out.shipment = l.version, l.shipment
	for p, r := range l.vrows {
		out.vrows[p] = &VRow{Auth: r.Auth.Clone(), HintCols: r.HintCols.Clone(), Confirmed: r.Confirmed, Ver: r.Ver, shipped: r.shipped}
	}
	for p, r := range l.ob {
		out.ob[p] = &OBRow{Auth: r.Auth.Clone(), Hints: r.Hints.Clone(), Processed: r.Processed.Clone(), Ver: r.Ver}
	}
	return out
}
