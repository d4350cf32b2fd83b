package vclock

import (
	"strings"

	"causalgc/internal/ids"
)

// Vector is a sparse dependency vector: a map from process (cluster) to
// the stamp of the latest known log-keeping event of that process. Absent
// entries are the zero stamp. Vectors approximate the DDVs of §3.1 and,
// after transitive closure, the full vector times V(e) of §3.2.
type Vector map[ids.ClusterID]Stamp

// NewVector returns an empty vector.
func NewVector() Vector { return make(Vector) }

// Get returns the stamp for process q (Zero if absent).
func (v Vector) Get(q ids.ClusterID) Stamp { return v[q] }

// Set records the stamp for process q, deleting zero stamps to keep the
// representation canonical (so reflect-free equality via Equal works).
func (v Vector) Set(q ids.ClusterID, s Stamp) {
	if s == Zero {
		delete(v, q)
		return
	}
	v[q] = s
}

// MergeEntry merges s into column q with Stamp.Merge and reports whether
// the column changed.
func (v Vector) MergeEntry(q ids.ClusterID, s Stamp) bool {
	old := v[q]
	m := old.Merge(s)
	if m == old {
		return false
	}
	v[q] = m
	return true
}

// MergeAll merges every entry of o into v (Stamp.Merge per column) and
// reports whether anything changed. This is the "for all k: DV[m][k] =
// max(DV[m][k], v[k])" loop of the paper's Receive procedure.
func (v Vector) MergeAll(o Vector) bool {
	changed := false
	for q, s := range o {
		if v.MergeEntry(q, s) {
			changed = true
		}
	}
	return changed
}

// Equal reports canonical equality (absent == zero stamp).
func (v Vector) Equal(o Vector) bool {
	if len(v) != len(o) {
		// Canonical representations never store zero stamps, but be
		// defensive: compare semantically.
		return v.semanticEqual(o)
	}
	for q, s := range v {
		if o[q] != s {
			return false
		}
	}
	return true
}

func (v Vector) semanticEqual(o Vector) bool {
	for q, s := range v {
		if o.Get(q) != s {
			return false
		}
	}
	for q, s := range o {
		if v.Get(q) != s {
			return false
		}
	}
	return true
}

// LEq reports v ≤ o in the Schwarz–Mattern partial order (§3.2), comparing
// stamps with the Less/Merge order per column.
func (v Vector) LEq(o Vector) bool {
	for q, s := range v {
		os := o.Get(q)
		if os.Less(s) {
			return false
		}
	}
	return true
}

// Before reports v < o: v ≤ o and v ≠ o. By Schwarz & Mattern, for events
// a → b (causally related), V(a) < V(b).
func (v Vector) Before(o Vector) bool { return v.LEq(o) && !v.Equal(o) }

// Concurrent reports that neither vector precedes the other.
func (v Vector) Concurrent(o Vector) bool { return !v.LEq(o) && !o.LEq(v) }

// Clone returns an independent copy.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	for q, s := range v {
		out[q] = s
	}
	return out
}

// LiveColumns returns the processes with live stamps, sorted.
func (v Vector) LiveColumns() []ids.ClusterID {
	out := make([]ids.ClusterID, 0, len(v))
	for q, s := range v {
		if s.Live() {
			out = append(out, q)
		}
	}
	ids.SortClusters(out)
	return out
}

// HasLiveRoot reports whether any actual root has a live stamp in v: the
// paper's reachability test ∃k: ¬Λ(V[k]) ∧ root(k) (§3.3).
func (v Vector) HasLiveRoot() bool {
	for q, s := range v {
		if q.IsRoot() && s.Live() {
			return true
		}
	}
	return false
}

// Columns returns every process mentioned in v, sorted.
func (v Vector) Columns() []ids.ClusterID {
	out := make([]ids.ClusterID, 0, len(v))
	for q := range v {
		out = append(out, q)
	}
	ids.SortClusters(out)
	return out
}

// String renders the vector deterministically: {s1/R1:Ē1 s2/c1:3}.
func (v Vector) String() string {
	cols := v.Columns()
	var b strings.Builder
	b.WriteByte('{')
	for i, q := range cols {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(q.String())
		b.WriteByte(':')
		b.WriteString(v[q].String())
	}
	b.WriteByte('}')
	return b.String()
}

// Render formats the vector against a fixed column order, printing 0 for
// absent entries: "(Ē1, 3, 2, 2)". Used to reproduce Fig 5 and Fig 8.
func (v Vector) Render(order []ids.ClusterID) string {
	parts := make([]string, len(order))
	for i, q := range order {
		parts[i] = v.Get(q).String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}
