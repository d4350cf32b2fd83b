// Package tracing implements a distributed graph-tracing GGD in the
// family the paper's §2.4 surveys (Hughes'85, Juul'93, Ladin & Liskov'92):
// epoch-based global marking with an explicit termination-detection phase.
//
// Each iteration ("epoch") marks the whole live object graph: a
// coordinator starts the epoch at every site; sites trace locally from
// their root sets, sending a mark message for every remote reference
// reached; marks received for unmarked objects continue the trace.
// Termination is detected with message-count accounting (a simplified
// Mattern/Dijkstra scheme): the epoch is complete only when every site is
// locally quiet and all marks in flight have been consumed — the paper's
// "consensus bottleneck": *every* site participates in *every* iteration
// and no resource is reclaimed before global agreement. Objects unmarked
// at the end of the epoch are garbage (comprehensive: cycles included).
//
// The message complexity is proportional to the number of LIVE inter-site
// references — the paper's contrast with its own algorithm, whose traffic
// scales with the amount of garbage (E7).
package tracing

import (
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
)

// Mark is the tracing control message: "object To is reachable".
type Mark struct {
	To ids.ObjectID
}

// Kind implements netsim.Payload.
func (Mark) Kind() string { return "trace.mark" }

// ApproxSize implements netsim.Payload.
func (Mark) ApproxSize() int { return 16 }

// Control messages for the epoch protocol.
type (
	// Start begins an epoch at a site.
	Start struct{ Epoch int }
	// Ack reports a site locally quiet, with its mark send/receive
	// counters for termination detection.
	Ack struct {
		Epoch          int
		Site           ids.SiteID
		Sent, Received int
	}
)

// Kind implements netsim.Payload.
func (Start) Kind() string { return "trace.start" }

// ApproxSize implements netsim.Payload.
func (Start) ApproxSize() int { return 8 }

// Kind implements netsim.Payload.
func (Ack) Kind() string { return "trace.ack" }

// ApproxSize implements netsim.Payload.
func (Ack) ApproxSize() int { return 24 }

// Collector runs epoch tracing over the live heaps of a sim world. It
// deliberately reuses the real site runtimes' snapshots as its object
// graph, so its message counts are comparable with the causal GGD's on
// identical workloads.
type Collector struct {
	sites []*site.Site
	net   netsim.Network

	// marked is the per-epoch mark set.
	marked map[ids.ObjectID]bool
	// graph is the frozen object graph of the current epoch.
	objs  map[ids.ObjectID]site.ObjectSnapshot
	roots []ids.ObjectID

	sent, received int
	// Epochs counts the epochs run so far.
	Epochs int
}

// New creates a collector over the given sites and network. The collector
// registers handlers on dedicated site IDs offset by markOffset... it
// instead multiplexes through a dedicated handler registered per site ID
// plus 1000, keeping the real runtimes' traffic separate.
func New(sites []*site.Site, net netsim.Network) *Collector {
	c := &Collector{sites: sites, net: net}
	for _, s := range sites {
		id := s.ID()
		net.Register(id+1000, func(from ids.SiteID, p netsim.Payload) {
			c.handle(id, p)
		})
	}
	return c
}

// port maps a real site ID to the collector's network endpoint for it.
func port(id ids.SiteID) ids.SiteID { return id + 1000 }

// RunEpoch performs one complete tracing iteration and returns the
// garbage found. All sites participate; the caller drives the network to
// quiescence between phases (deterministic sim).
//
// The epoch freezes a consistent snapshot of every site's graph first —
// the simplification that stands in for the paper's §2.4 log-based
// reconstruction ("the contents of these logs may be used to reconstruct
// consistent representations of the overall object graph") — and then
// performs the distributed marking with real messages.
func (c *Collector) RunEpoch(drive func()) []ids.ObjectID {
	c.Epochs++
	c.marked = make(map[ids.ObjectID]bool)
	c.objs = make(map[ids.ObjectID]site.ObjectSnapshot)
	c.roots = nil
	c.sent, c.received = 0, 0

	for _, s := range c.sites {
		root, objs := s.Snapshot()
		c.roots = append(c.roots, root)
		for _, o := range objs {
			c.objs[o.ID] = o
		}
	}

	// Phase 1: the coordinator starts every site (consensus participant
	// #1..N) — 2N control messages for start+ack even if a site holds no
	// garbage at all.
	coord := port(c.sites[0].ID())
	for _, s := range c.sites {
		c.net.Send(coord, port(s.ID()), Start{Epoch: c.Epochs})
	}
	drive()

	// Phase 2: termination detection. In the deterministic harness the
	// drive() call runs the network dry, so in-flight marks are zero and
	// every site acks once; a real deployment would loop.
	for _, s := range c.sites {
		c.net.Send(port(s.ID()), coord, Ack{
			Epoch: c.Epochs, Site: s.ID(), Sent: c.sent, Received: c.received,
		})
	}
	drive()

	// Phase 3: sweep — everything unmarked is garbage.
	var garbage []ids.ObjectID
	for id := range c.objs {
		if !c.marked[id] {
			garbage = append(garbage, id)
		}
	}
	ids.SortObjects(garbage)
	return garbage
}

func (c *Collector) handle(at ids.SiteID, p netsim.Payload) {
	switch m := p.(type) {
	case Start:
		// Local trace from this site's roots.
		for _, r := range c.roots {
			if r.Site == at {
				c.trace(at, r)
			}
		}
	case Mark:
		c.received++
		c.trace(at, m.To)
	case Ack:
		// Coordinator bookkeeping; nothing further to do in the harness.
	}
}

// trace marks transitively within site at, sending Mark messages for
// remote references.
func (c *Collector) trace(at ids.SiteID, obj ids.ObjectID) {
	if obj.Site != at || c.marked[obj] {
		return
	}
	o, ok := c.objs[obj]
	if !ok {
		return
	}
	c.marked[obj] = true
	for _, ref := range o.Slots {
		if !ref.Valid() {
			continue
		}
		if ref.Obj.Site == at {
			c.trace(at, ref.Obj)
			continue
		}
		c.sent++
		c.net.Send(port(at), port(ref.Obj.Site), Mark{To: ref.Obj})
	}
}
