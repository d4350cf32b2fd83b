// Package netsim provides the message-passing substrate of the
// reproduction: an in-memory network connecting sites, in two flavours —
// a deterministic single-threaded simulator (Sim) used by tests and
// benchmarks, and a concurrent network (AsyncNetwork) with one delivery
// goroutine per site, the default under a Node.
//
// The paper's robustness claims (§1, §5) are about message loss and
// duplication, so the substrate injects faults: per-message drop and
// duplication probabilities, static partitions, and (in Sim) arbitrary
// reordering. Delivery statistics are recorded per payload kind, because
// message complexity is the paper's headline comparison metric (§4).
//
// Each mechanism exists once and is shared: Faults.Decide is the only
// place a drop or duplication is decided (Sim and AsyncNetwork call
// it), Mailbox is the per-site delivery queue of every concurrent
// substrate (AsyncNetwork and transport/tcp), IdleCut the one
// quiescence test over such queues, and Stats the one ledger of sent,
// delivered, dropped and duplicated.
package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"causalgc/internal/ids"
)

// Payload is implemented by every wire message exchanged between sites.
type Payload interface {
	// Kind names the message type for statistics ("ref", "destroy", "ggd",
	// "trace.mark", ...).
	Kind() string
	// ApproxSize estimates the encoded size in bytes, so benches can
	// report traffic volume as well as message counts.
	ApproxSize() int
}

// Application is implemented by payloads that model reliable application
// traffic (mutator RPC). Fault injection skips them: the paper's
// robustness claims (§1, §5) concern the GGD control plane — lazy
// log-keeping piggybacks on the mutator's own messages, whose delivery the
// application already guarantees.
type Application interface {
	// ApplicationTraffic reports that the payload is mutator traffic.
	ApplicationTraffic() bool
}

// FaultEligible reports whether fault injection applies to p: control
// payloads are eligible; application payloads are not.
func FaultEligible(p Payload) bool {
	a, ok := p.(Application)
	return !ok || !a.ApplicationTraffic()
}

// Handler consumes a delivered payload. Handlers run on the network's
// delivery context: single-threaded in Sim, one goroutine per site in
// AsyncNetwork. A handler may send further messages.
type Handler func(from ids.SiteID, p Payload)

// Network abstracts the message substrate so the site runtime is agnostic
// to it. Three implementations exist: the deterministic single-threaded
// Sim and the concurrent in-memory AsyncNetwork in this package, and the
// real-socket tcp.Network in the public transport/tcp package. The public
// transport package re-exports this interface as transport.Transport;
// user-provided substrates implement it there.
type Network interface {
	// Register installs the handler for a site. It must be called before
	// any message is sent to that site.
	Register(site ids.SiteID, h Handler)
	// Send queues a payload for delivery. Delivery is asynchronous and,
	// depending on the substrate and fault plan, may never happen.
	Send(from, to ids.SiteID, p Payload)
	// Stats returns the shared delivery statistics.
	Stats() *Stats
}

// Faults configures fault injection.
type Faults struct {
	// Seed drives the fault and scheduling randomness; a given seed yields
	// a reproducible run in Sim.
	Seed int64
	// DropProb is the probability that a sent message is silently lost.
	DropProb float64
	// DropKindProb drops messages of a specific payload kind with the
	// given probability, on top of DropProb. Used by fault-injection
	// lanes that target one message type (e.g. losing only edge-asserts
	// to exercise the hint-resolution protocol).
	DropKindProb map[string]float64
	// DupProb is the probability that a sent message is delivered twice.
	DupProb float64
	// Reorder, in Sim, delivers messages of a channel in random order
	// instead of FIFO.
	Reorder bool
	// Partitioned, when non-nil, blocks messages for which it returns
	// true. Blocked messages count as dropped.
	Partitioned func(from, to ids.SiteID) bool
}

// Verdict is a fault plan's decision for one send.
type Verdict uint8

// The fault plan's verdicts.
const (
	// Deliver enqueues the message once.
	Deliver Verdict = iota
	// Drop loses the message.
	Drop
	// Duplicate enqueues the message twice.
	Duplicate
)

// Decide is the fault plan's single decision point: what happens to one
// send of p from -> to. Application payloads are always delivered and
// draw nothing from rng. For control payloads the ladder is partition
// (no draw), DropProb, DropKindProb, DupProb, each probability drawing
// one rng.Float64 only when it is positive and the ladder got that far
// — the order every seeded schedule depends on.
func (f *Faults) Decide(rng *rand.Rand, from, to ids.SiteID, p Payload) Verdict {
	if !FaultEligible(p) {
		return Deliver
	}
	if f.Partitioned != nil && f.Partitioned(from, to) {
		return Drop
	}
	if f.DropProb > 0 && rng.Float64() < f.DropProb {
		return Drop
	}
	if kp := f.DropKindProb[p.Kind()]; kp > 0 && rng.Float64() < kp {
		return Drop
	}
	if f.DupProb > 0 && rng.Float64() < f.DupProb {
		return Duplicate
	}
	return Deliver
}

// Stats records message traffic. Safe for concurrent use.
type Stats struct {
	mu    sync.Mutex
	kinds map[string]*kindCounters
}

type kindCounters struct {
	sent, delivered, dropped, duplicated, bytes int
}

// NewStats returns empty statistics.
func NewStats() *Stats {
	return &Stats{kinds: make(map[string]*kindCounters)}
}

func (s *Stats) counters(kind string) *kindCounters {
	k, ok := s.kinds[kind]
	if !ok {
		k = &kindCounters{}
		s.kinds[kind] = k
	}
	return k
}

// RecordSent counts one send of p (kind and approximate bytes).
// Exported so out-of-package substrates (transport/tcp) can record into
// the shared statistics.
func (s *Stats) RecordSent(p Payload) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.counters(p.Kind())
	k.sent++
	k.bytes += p.ApproxSize()
}

// RecordDelivered counts one delivery of p.
func (s *Stats) RecordDelivered(p Payload) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters(p.Kind()).delivered++
}

// RecordDropped counts one loss of p (fault injection, partition,
// unreachable or closed destination).
func (s *Stats) RecordDropped(p Payload) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters(p.Kind()).dropped++
}

// RecordDuplicated counts one duplicated delivery of p.
func (s *Stats) RecordDuplicated(p Payload) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters(p.Kind()).duplicated++
}

// KindStats is a copy of the counters for one payload kind, as returned
// by Snapshot.
type KindStats struct {
	// Sent counts sends of the kind.
	Sent int
	// Delivered counts deliveries of the kind.
	Delivered int
	// Dropped counts losses of the kind (fault injection, partition,
	// unreachable or closed destination).
	Dropped int
	// Duplicated counts duplicated deliveries of the kind.
	Duplicated int
	// Bytes sums the approximate encoded sizes of sends of the kind.
	Bytes int
}

// Snapshot returns a copy of the counters of every payload kind seen so
// far, keyed by kind.
func (s *Stats) Snapshot() map[string]KindStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]KindStats, len(s.kinds))
	for kind, k := range s.kinds {
		out[kind] = KindStats{
			Sent:       k.sent,
			Delivered:  k.delivered,
			Dropped:    k.dropped,
			Duplicated: k.duplicated,
			Bytes:      k.bytes,
		}
	}
	return out
}

// Kind returns a copy of the counters for one payload kind.
func (s *Stats) Kind(kind string) (sent, delivered, dropped, duplicated, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k, ok := s.kinds[kind]
	if !ok {
		return 0, 0, 0, 0, 0
	}
	return k.sent, k.delivered, k.dropped, k.duplicated, k.bytes
}

// Sent returns the number of sends for one kind.
func (s *Stats) Sent(kind string) int {
	sent, _, _, _, _ := s.Kind(kind)
	return sent
}

// TotalSent sums sends over all kinds.
func (s *Stats) TotalSent() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range s.kinds {
		n += k.sent
	}
	return n
}

// Reset clears all counters.
func (s *Stats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kinds = make(map[string]*kindCounters)
}

// String renders the statistics deterministically (sorted by kind).
func (s *Stats) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	kinds := make([]string, 0, len(s.kinds))
	for k := range s.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := ""
	for _, kind := range kinds {
		k := s.kinds[kind]
		out += fmt.Sprintf("%-12s sent=%-6d delivered=%-6d dropped=%-4d dup=%-4d bytes=%d\n",
			kind, k.sent, k.delivered, k.dropped, k.duplicated, k.bytes)
	}
	return out
}
