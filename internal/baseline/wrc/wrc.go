// Package wrc implements weighted reference counting (Bevan; Watson &
// Watson, PARLE'87), the classic non-comprehensive GGD the paper contrasts
// with (§2.3, §3): cheap, no extra messages for copies, but structurally
// unable to collect cycles — which is exactly the trade-off the paper
// refuses ("comprehensiveness has often been traded off for scalability",
// §3).
//
// Every object carries a total weight; every reference carries a partial
// weight. Copying a reference splits the holder's weight (no message);
// destroying a reference returns its weight to the object (one message);
// an object whose returned weight equals its total has no remote
// references and is collectible if not locally rooted. A cycle's members
// always retain outstanding weight on the cycle's internal references, so
// the cycle leaks — Experiment E8's comparison row.
package wrc

import (
	"fmt"

	"causalgc/internal/ids"
	"causalgc/internal/netsim"
)

// InitialWeight is the weight minted with each new object (a power of two
// so splits stay integral until the indirection threshold).
const InitialWeight = 1 << 16

// ReturnMsg returns weight to an object after a reference was destroyed.
type ReturnMsg struct {
	To     ids.ClusterID
	Weight int64
}

// Kind implements netsim.Payload.
func (ReturnMsg) Kind() string { return "wrc.return" }

// ApproxSize implements netsim.Payload.
func (ReturnMsg) ApproxSize() int { return 24 }

// WRef is a weighted reference.
type WRef struct {
	Target ids.ClusterID
	Weight int64
}

// object is one collectible unit (per-object cluster granularity).
type object struct {
	id       ids.ClusterID
	total    int64
	returned int64
	// held are the weighted references this object owns, keyed by target
	// with accumulated weight.
	held map[ids.ClusterID]int64
	// rooted marks objects referenced by the site's local root set.
	rooted bool
	dead   bool
}

// Site is one site's weighted-reference-counting state.
type Site struct {
	id       ids.SiteID
	net      netsim.Network
	objects  map[ids.ClusterID]*object
	removed  int
	onRemove func(ids.ClusterID)
}

// New creates a WRC site. onRemove may be nil.
func New(id ids.SiteID, net netsim.Network, onRemove func(ids.ClusterID)) *Site {
	s := &Site{
		id:       id,
		net:      net,
		objects:  make(map[ids.ClusterID]*object),
		onRemove: onRemove,
	}
	net.Register(id, s.handle)
	return s
}

// Removed returns the number of objects collected.
func (s *Site) Removed() int { return s.removed }

// NewObject creates a local object and returns the initial reference,
// rooted locally when rooted is set.
func (s *Site) NewObject(id ids.ClusterID, rooted bool) WRef {
	if id.Site != s.id {
		panic(fmt.Sprintf("wrc %v: foreign object %v", s.id, id))
	}
	s.objects[id] = &object{
		id:     id,
		total:  InitialWeight,
		held:   make(map[ids.ClusterID]int64),
		rooted: rooted,
	}
	return WRef{Target: id, Weight: InitialWeight}
}

// Give stores ref into holder's reference table (holder now owns the
// weight).
func (s *Site) Give(holder ids.ClusterID, ref WRef) error {
	h, ok := s.objects[holder]
	if !ok || h.dead {
		return fmt.Errorf("wrc %v: unknown holder %v", s.id, holder)
	}
	h.held[ref.Target] += ref.Weight
	return nil
}

// Copy splits holder's weight on target in half, producing a new reference
// to hand elsewhere — no message, the advertised strength of weighted
// schemes (§2.3). An error is returned when the weight is exhausted
// (real systems add indirection objects; the workloads here stay within
// the budget).
func (s *Site) Copy(holder, target ids.ClusterID) (WRef, error) {
	h, ok := s.objects[holder]
	if !ok || h.dead {
		return WRef{}, fmt.Errorf("wrc %v: unknown holder %v", s.id, holder)
	}
	w := h.held[target]
	if w < 2 {
		return WRef{}, fmt.Errorf("wrc %v: weight exhausted for %v", s.id, target)
	}
	half := w / 2
	h.held[target] = w - half
	return WRef{Target: target, Weight: half}, nil
}

// Drop destroys holder's reference to target, returning the weight to the
// target's object (one message).
func (s *Site) Drop(holder, target ids.ClusterID) error {
	h, ok := s.objects[holder]
	if !ok {
		return fmt.Errorf("wrc %v: unknown holder %v", s.id, holder)
	}
	w := h.held[target]
	if w == 0 {
		return fmt.Errorf("wrc %v: %v holds no weight on %v", s.id, holder, target)
	}
	delete(h.held, target)
	s.returnWeight(target, w)
	return nil
}

func (s *Site) returnWeight(target ids.ClusterID, w int64) {
	if target.Site == s.id {
		if o, ok := s.objects[target]; ok {
			o.returned += w
			s.check(o)
		}
		return
	}
	s.net.Send(s.id, target.Site, ReturnMsg{To: target, Weight: w})
}

func (s *Site) handle(_ ids.SiteID, p netsim.Payload) {
	m, ok := p.(ReturnMsg)
	if !ok {
		return
	}
	o, ok := s.objects[m.To]
	if !ok || o.dead {
		return
	}
	o.returned += m.Weight
	s.check(o)
}

// check collects an object whose whole weight came home: no references to
// it exist anywhere. Cycle members never satisfy this — their internal
// references hold weight forever — so WRC is not comprehensive.
func (s *Site) check(o *object) {
	if o.dead || o.rooted || o.returned < o.total {
		return
	}
	o.dead = true
	s.removed++
	for target, w := range o.held {
		s.returnWeight(target, w)
	}
	o.held = make(map[ids.ClusterID]int64)
	if s.onRemove != nil {
		s.onRemove(o.id)
	}
}
