package netsim

import (
	"math/rand"
	"sync"
	"time"

	"causalgc/internal/ids"
)

// AsyncNetwork is the concurrent in-memory network: one Mailbox (and so
// one delivery goroutine) per registered site, and the same fault plan
// as Sim minus reordering (goroutine scheduling provides natural
// nondeterminism).
//
// All goroutines are owned by the network and joined by Close.
type AsyncNetwork struct {
	mu     sync.Mutex
	boxes  map[ids.SiteID]*Mailbox
	rng    *rand.Rand
	faults Faults
	stats  *Stats
	cut    IdleCut
	closed bool
	wg     sync.WaitGroup
}

// NewAsync creates a concurrent network with the given fault plan.
func NewAsync(f Faults) *AsyncNetwork {
	return &AsyncNetwork{
		boxes:  make(map[ids.SiteID]*Mailbox),
		rng:    rand.New(rand.NewSource(f.Seed)),
		faults: f,
		stats:  NewStats(),
	}
}

var _ Network = (*AsyncNetwork)(nil)

// Register installs the handler for a site and starts its delivery
// goroutine; registering a site again swaps its handler. Registering
// after Close is a no-op.
func (n *AsyncNetwork) Register(site ids.SiteID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	if box, ok := n.boxes[site]; ok {
		box.SetHandler(h)
		return
	}
	n.boxes[site] = StartMailbox(h, &n.cut, n.stats, &n.wg)
}

// Stats returns the delivery statistics.
func (n *AsyncNetwork) Stats() *Stats { return n.stats }

// Send queues p for delivery, applying the fault plan. Sends to an
// unregistered site or after Close are dropped.
func (n *AsyncNetwork) Send(from, to ids.SiteID, p Payload) {
	n.stats.RecordSent(p)

	n.mu.Lock()
	box := n.boxes[to]
	verdict := Drop
	if !n.closed {
		verdict = n.faults.Decide(n.rng, from, to, p) // rng is guarded by n.mu
	}
	n.mu.Unlock()

	if verdict == Drop || box == nil || !box.Enqueue(from, p) {
		n.stats.RecordDropped(p)
		return
	}
	if verdict == Duplicate {
		n.stats.RecordDuplicated(p)
		if !box.Enqueue(from, p) {
			n.stats.RecordDropped(p)
		}
	}
}

// Quiesce blocks until the network is idle as one consistent cut
// (IdleCut): every queue empty and every handler returned, with nothing
// enqueued while that was established. A handler can only create new
// work by sending, which it does before it returns, so the verdict is
// stable: messages sent after Quiesce returns come from outside the
// network.
func (n *AsyncNetwork) Quiesce() {
	for !n.cut.Idle() {
		time.Sleep(50 * time.Microsecond)
	}
}

// Drain is the bounded form of Quiesce, satisfying the public
// transport.Drainer capability: it gives up once the timeout elapses
// and reports whether the network went idle.
func (n *AsyncNetwork) Drain(timeout time.Duration) bool {
	// The bound is a polling budget, not a wall-clock deadline: the
	// loop gives up after sleeping for timeout in total, so no clock
	// read is needed (determcheck forbids them in this package) and
	// the budget is immune to clock steps. Under scheduler pressure
	// the sleeps oversleep, which only ever lengthens the grace.
	const poll = 50 * time.Microsecond
	for waited := time.Duration(0); ; waited += poll {
		if n.cut.Idle() {
			return true
		}
		if waited >= timeout {
			return false
		}
		time.Sleep(poll)
	}
}

// Close stops all delivery goroutines after their queues drain and joins
// them. Sends after Close are dropped.
func (n *AsyncNetwork) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, box := range n.boxes {
		box.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
}
