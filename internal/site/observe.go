package site

import (
	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
)

// Fanout composes observers: the returned Observer forwards every
// lifecycle event to each non-nil child, in order, and forwards
// AckObserver retirement events to the children that implement that
// extension. It lets a metrics recorder and a user observer share the
// single Options.Observer slot instead of displacing one another.
// With zero or one non-nil child there is no wrapping: Fanout returns
// nil or the child itself.
func Fanout(obs ...Observer) Observer {
	kept := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return fanout(kept)
}

// fanout is the multi-child composition built by Fanout. It satisfies
// AckObserver unconditionally, forwarding retirement events only to
// children that implement the extension.
type fanout []Observer

var (
	_ Observer    = fanout(nil)
	_ AckObserver = fanout(nil)
)

// ClusterRemoved forwards the removal event to every child.
func (f fanout) ClusterRemoved(site ids.SiteID, cluster ids.ClusterID) {
	for _, o := range f {
		o.ClusterRemoved(site, cluster)
	}
}

// Collected forwards the collection event to every child.
func (f fanout) Collected(site ids.SiteID, stats heap.CollectStats) {
	for _, o := range f {
		o.Collected(site, stats)
	}
}

// FrameRetired forwards the retirement event to the children
// implementing AckObserver.
func (f fanout) FrameRetired(site ids.SiteID, peer ids.SiteID, stream core.Stream, frames int) {
	for _, o := range f {
		if a, ok := o.(AckObserver); ok {
			a.FrameRetired(site, peer, stream, frames)
		}
	}
}

// Depths reports the sizes of a site's retained-state tables: the
// gauges a monitor watches to confirm the protocol's metadata stays
// bounded under churn. All converge to zero at quiescence.
type Depths struct {
	// Outbox is the number of sent mutator frames retained awaiting
	// cumulative acknowledgement.
	Outbox int
	// AssertRows is the number of sent edge-asserts retained awaiting
	// cumulative acknowledgement.
	AssertRows int
	// DestroyRows is the number of sent edge-destruction bundles
	// retained awaiting cumulative acknowledgement; a bundle toward a
	// peer that never answers stays.
	DestroyRows int
	// PendingDeliveries is the engine's count of unborn processes:
	// clusters that control messages or reference transfers named ahead
	// of their creation message (zero again once every creation has
	// arrived).
	PendingDeliveries int
}

// Depths sums the retained-state table sizes across shards (aggregate
// monitor gauges; per-shard gauges come from ShardDepths).
func (s *Site) Depths() Depths {
	var total Depths
	for i := range s.shards {
		d := s.ShardDepths(i)
		total.Outbox += d.Outbox
		total.AssertRows += d.AssertRows
		total.DestroyRows += d.DestroyRows
		total.PendingDeliveries += d.PendingDeliveries
	}
	return total
}

// ShardDepths returns one shard's retained-state table sizes.
func (s *Site) ShardDepths(i int) Depths {
	r := s.shards[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	return Depths{
		Outbox:            r.ledger(core.StreamMut).Len(),
		AssertRows:        r.ledger(core.StreamAssert).Len(),
		DestroyRows:       r.ledger(core.StreamDestroy).Len(),
		PendingDeliveries: r.engine.Unborn(),
	}
}
