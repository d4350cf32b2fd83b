// Package ids defines the identifier types shared by every subsystem of
// causalgc: sites, clusters (the vertices of the global root graph) and
// heap objects.
//
// Identifiers are small comparable structs so they can key maps directly.
// A ClusterID carries an immutable "actual root" flag: the paper's root(·)
// predicate (§3.3) must be evaluable locally at any site, and encoding
// rootness in the identity avoids a naming service or consensus round.
package ids

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
)

// CreationSeq is the introduction-sequence sentinel marking an object
// creation: the creation message itself carries the authoritative stamp,
// so the acquiring side sends no edge-assert.
const CreationSeq = ^uint64(0)

// SiteID identifies one site (an independent address space in §2 of the
// paper). Site numbering starts at 1; the zero value is "no site".
type SiteID uint32

// NoSite is the zero SiteID, used when an identifier is unassigned.
const NoSite SiteID = 0

// String returns "s<n>" for diagnostics.
func (s SiteID) String() string {
	return "s" + strconv.FormatUint(uint64(s), 10)
}

// Valid reports whether the site identifier is assigned.
func (s SiteID) Valid() bool { return s != NoSite }

// ClusterID identifies a vertex of the global root graph: a global root at
// per-object granularity, or an object cluster at coarser granularity
// (§3.5). The Root flag marks actual roots — vertices that are alive by
// fiat (local root sets, named persistent roots).
type ClusterID struct {
	Site SiteID
	Seq  uint64
	Root bool
}

// NoCluster is the zero ClusterID.
var NoCluster ClusterID

// String renders e.g. "s2/c7" or "s2/R1" for an actual root.
func (c ClusterID) String() string {
	if c.Root {
		return fmt.Sprintf("%s/R%d", c.Site, c.Seq)
	}
	return fmt.Sprintf("%s/c%d", c.Site, c.Seq)
}

// Valid reports whether the cluster identifier is assigned.
func (c ClusterID) Valid() bool { return c.Site.Valid() }

// IsRoot reports whether the cluster is an actual root (paper: a root of
// the global root graph that is a root of the object graph).
func (c ClusterID) IsRoot() bool { return c.Root }

// Less imposes a total order used for deterministic iteration: by site,
// then sequence, with actual roots ordering before plain clusters of the
// same (site, seq).
func (c ClusterID) Less(o ClusterID) bool {
	if c.Site != o.Site {
		return c.Site < o.Site
	}
	if c.Seq != o.Seq {
		return c.Seq < o.Seq
	}
	return c.Root && !o.Root
}

// Compare returns -1, 0 or +1 following the Less ordering.
func (c ClusterID) Compare(o ClusterID) int {
	switch {
	case c == o:
		return 0
	case c.Less(o):
		return -1
	default:
		return 1
	}
}

// ObjectID identifies a heap object within the whole system. Objects are
// allocated by a site and never migrate in this reproduction (the paper
// does not evaluate migration).
type ObjectID struct {
	Site SiteID
	Seq  uint64
}

// NoObject is the zero ObjectID.
var NoObject ObjectID

// String renders e.g. "s3/o42".
func (o ObjectID) String() string {
	return fmt.Sprintf("%s/o%d", o.Site, o.Seq)
}

// Valid reports whether the object identifier is assigned.
func (o ObjectID) Valid() bool { return o.Site.Valid() }

// Less imposes a total order for deterministic iteration.
func (o ObjectID) Less(p ObjectID) bool { return o.Compare(p) < 0 }

// Compare returns -1, 0 or +1: by site, then sequence.
func (o ObjectID) Compare(p ObjectID) int {
	if c := cmp.Compare(o.Site, p.Site); c != 0 {
		return c
	}
	return cmp.Compare(o.Seq, p.Seq)
}

// ClusterSet is a set of cluster identifiers with deterministic snapshots.
type ClusterSet map[ClusterID]struct{}

// NewClusterSet builds a set from the given members.
func NewClusterSet(members ...ClusterID) ClusterSet {
	s := make(ClusterSet, len(members))
	for _, m := range members {
		s[m] = struct{}{}
	}
	return s
}

// Add inserts id and reports whether it was absent.
func (s ClusterSet) Add(id ClusterID) bool {
	if _, ok := s[id]; ok {
		return false
	}
	s[id] = struct{}{}
	return true
}

// Remove deletes id and reports whether it was present.
func (s ClusterSet) Remove(id ClusterID) bool {
	if _, ok := s[id]; !ok {
		return false
	}
	delete(s, id)
	return true
}

// Has reports membership.
func (s ClusterSet) Has(id ClusterID) bool {
	_, ok := s[id]
	return ok
}

// Sorted returns the members in Less order.
func (s ClusterSet) Sorted() []ClusterID {
	out := make([]ClusterID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	SortClusters(out)
	return out
}

// Clone returns an independent copy of the set.
func (s ClusterSet) Clone() ClusterSet {
	out := make(ClusterSet, len(s))
	for id := range s {
		out[id] = struct{}{}
	}
	return out
}

// SortClusters sorts a slice of cluster IDs in Less order, in place.
// Callers range from acquaintance lists to a site's whole process table:
// slices.SortFunc is allocation-free and O(n log n) on both.
func SortClusters(cs []ClusterID) { slices.SortFunc(cs, ClusterID.Compare) }

// SortObjects sorts a slice of object IDs in Less order, in place (heap-
// sized inputs: every object of a site).
func SortObjects(os []ObjectID) { slices.SortFunc(os, ObjectID.Compare) }
