package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"causalgc/internal/ids"
)

// Sim is the deterministic network simulator: a single-threaded message
// scheduler with seeded pseudo-random choice of the next channel to
// deliver from. With the same seed, workload and fault plan, a run is
// fully reproducible — which is what lets the test suite check the GGD
// safety invariant over many adversarial schedules.
//
// Sim is not safe for concurrent use; it is driven from one goroutine.
type Sim struct {
	handlers map[ids.SiteID]Handler
	queues   map[channel][]Payload
	order    []channel // sorted keys of non-empty queues
	rng      *rand.Rand
	faults   Faults
	stats    *Stats
	inFlight int
	delivers int
}

type channel struct {
	from, to ids.SiteID
}

func (c channel) less(o channel) bool {
	if c.from != o.from {
		return c.from < o.from
	}
	return c.to < o.to
}

// NewSim creates a simulator with the given fault plan.
func NewSim(f Faults) *Sim {
	return &Sim{
		handlers: make(map[ids.SiteID]Handler),
		queues:   make(map[channel][]Payload),
		rng:      rand.New(rand.NewSource(f.Seed)),
		faults:   f,
		stats:    NewStats(),
	}
}

var _ Network = (*Sim)(nil)

// Register installs the handler for a site.
func (s *Sim) Register(site ids.SiteID, h Handler) {
	s.handlers[site] = h
}

// Stats returns the delivery statistics.
func (s *Sim) Stats() *Stats { return s.stats }

// Send queues p from -> to, applying the fault plan: a drop loses the
// message, a duplication enqueues it twice.
func (s *Sim) Send(from, to ids.SiteID, p Payload) {
	s.stats.RecordSent(p)
	switch s.faults.Decide(s.rng, from, to, p) {
	case Drop:
		s.stats.RecordDropped(p)
		return
	case Duplicate:
		s.stats.RecordDuplicated(p)
		s.enqueue(from, to, p)
	}
	s.enqueue(from, to, p)
}

func (s *Sim) enqueue(from, to ids.SiteID, p Payload) {
	ch := channel{from: from, to: to}
	q := s.queues[ch]
	if len(q) == 0 {
		s.insertChannel(ch)
	}
	s.queues[ch] = append(q, p)
	s.inFlight++
}

func (s *Sim) insertChannel(ch channel) {
	i := sort.Search(len(s.order), func(i int) bool { return !s.order[i].less(ch) })
	if i < len(s.order) && s.order[i] == ch {
		return
	}
	s.order = append(s.order, channel{})
	copy(s.order[i+1:], s.order[i:])
	s.order[i] = ch
}

func (s *Sim) removeChannel(ch channel) {
	i := sort.Search(len(s.order), func(i int) bool { return !s.order[i].less(ch) })
	if i < len(s.order) && s.order[i] == ch {
		s.order = append(s.order[:i], s.order[i+1:]...)
	}
}

// Pending returns the number of queued, undelivered messages.
func (s *Sim) Pending() int { return s.inFlight }

// Deliveries returns the number of messages delivered so far.
func (s *Sim) Deliveries() int { return s.delivers }

// Step delivers one message, chosen pseudo-randomly among the non-empty
// channels (FIFO within a channel unless Faults.Reorder). It reports
// whether a message was delivered.
func (s *Sim) Step() bool {
	if len(s.order) == 0 {
		return false
	}
	ch := s.order[s.rng.Intn(len(s.order))]
	q := s.queues[ch]
	idx := 0
	if s.faults.Reorder && len(q) > 1 {
		idx = s.rng.Intn(len(q))
	}
	p := q[idx]
	q = append(q[:idx], q[idx+1:]...)
	if len(q) == 0 {
		delete(s.queues, ch)
		s.removeChannel(ch)
	} else {
		s.queues[ch] = q
	}
	s.inFlight--
	s.delivers++
	h := s.handlers[ch.to]
	if h == nil {
		// Unregistered destination: the message is lost (e.g. a straggler
		// to a site that was torn down). This models the paper's
		// tolerance of loss.
		s.stats.RecordDropped(p)
		return true
	}
	s.stats.RecordDelivered(p)
	h(ch.from, p)
	return true
}

// Run delivers messages until the network is quiet or maxSteps messages
// have been delivered (0 means no limit). It returns the number of
// deliveries and an error if the step budget was exhausted while messages
// were still pending — which in this system indicates a propagation that
// fails to reach a fixpoint.
func (s *Sim) Run(maxSteps int) (int, error) {
	n := 0
	for s.Step() {
		n++
		if maxSteps > 0 && n >= maxSteps && s.inFlight > 0 {
			return n, fmt.Errorf("netsim: %d messages still pending after %d deliveries", s.inFlight, n)
		}
	}
	return n, nil
}

// Drain delivers every queued message (the single-threaded equivalent of
// a transport flush) and reports whether the network is quiet. The
// timeout is accepted for interface compatibility with the public
// transport.Drainer capability; delivery is synchronous, so it is not
// consulted.
func (s *Sim) Drain(timeout time.Duration) bool {
	_ = timeout
	_, err := s.Run(0)
	return err == nil && s.inFlight == 0
}

// Unregister removes a site's handler, modelling a crashed process:
// messages delivered to it afterwards are dropped (tolerated loss)
// until a recovered runtime re-registers.
func (s *Sim) Unregister(site ids.SiteID) {
	delete(s.handlers, site)
}

// DropPendingTo discards the queued GGD control messages addressed to a
// site, modelling the in-flight frames a process crash loses; it
// returns the number dropped. Application payloads (mutator RPC) stay
// queued: the model — like the paper's §3.4 — assumes the application
// retries its own messages until delivered, so they reach the restarted
// site.
func (s *Sim) DropPendingTo(site ids.SiteID) int {
	dropped := 0
	for ch, q := range s.queues {
		if ch.to != site {
			continue
		}
		keep := q[:0]
		for _, p := range q {
			if FaultEligible(p) {
				s.stats.RecordDropped(p)
				s.inFlight--
				dropped++
				continue
			}
			keep = append(keep, p)
		}
		if len(keep) == 0 {
			delete(s.queues, ch)
			s.removeChannel(ch)
		} else {
			s.queues[ch] = keep
		}
	}
	return dropped
}

// Rand exposes the simulator's seeded source so workloads can share it and
// stay reproducible.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// SetPartition replaces the partition predicate at runtime (nil heals).
func (s *Sim) SetPartition(f func(from, to ids.SiteID) bool) {
	s.faults.Partitioned = f
}

// SetDropProb replaces the drop probability at runtime.
func (s *Sim) SetDropProb(p float64) { s.faults.DropProb = p }

// SetDropKindProb replaces the per-kind drop probability for one payload
// kind at runtime (0 heals that kind).
func (s *Sim) SetDropKindProb(kind string, p float64) {
	if s.faults.DropKindProb == nil {
		s.faults.DropKindProb = make(map[string]float64)
	}
	s.faults.DropKindProb[kind] = p
}

// SetDupProb replaces the duplication probability at runtime.
func (s *Sim) SetDupProb(p float64) { s.faults.DupProb = p }
