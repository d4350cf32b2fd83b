package netsim

import (
	"sync"
	"sync/atomic"

	"causalgc/internal/ids"
)

// Mailbox is the per-site delivery queue of the concurrent substrates
// (AsyncNetwork, and transport/tcp for the sites a process hosts): an
// unbounded FIFO drained by one goroutine, so deliveries to a site are
// serialised and a handler may send — even to its own site — without
// deadlocking.
type Mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []mail
	busy   int // messages popped whose handler has not returned yet
	closed bool
	h      Handler
	cut    *IdleCut
}

type mail struct {
	from ids.SiteID
	p    Payload
}

// StartMailbox creates a mailbox delivering to h, puts it under cut's
// watch and starts its delivery goroutine, which records each delivery
// in stats and is joined through wg once Close has been called and the
// queue has drained.
func StartMailbox(h Handler, cut *IdleCut, stats *Stats, wg *sync.WaitGroup) *Mailbox {
	m := &Mailbox{h: h, cut: cut}
	m.cond = sync.NewCond(&m.mu)
	cut.Watch(m)
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.pump(stats)
	}()
	return m
}

// SetHandler replaces the handler: messages popped from now on go to h,
// in the order they were enqueued.
func (m *Mailbox) SetHandler(h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.h = h
}

// Enqueue queues one delivery. It reports false, queuing nothing, once
// the mailbox is closed; the caller books the message as dropped.
func (m *Mailbox) Enqueue(from ids.SiteID, p Payload) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.cut.Tick() // before the append: see IdleCut
	m.queue = append(m.queue, mail{from: from, p: p})
	m.cond.Signal()
	return true
}

// Close refuses further enqueues; the delivery goroutine hands what is
// already queued to the handler and then exits.
func (m *Mailbox) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// Idle reports whether nothing is queued and no handler is running.
func (m *Mailbox) Idle() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) == 0 && m.busy == 0
}

func (m *Mailbox) pump(stats *Stats) {
	m.mu.Lock()
	for {
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		next := m.queue[0]
		// Clear the popped slot: the backing array outlives the pop, and
		// would otherwise pin every delivered payload until it is
		// reallocated.
		m.queue[0] = mail{}
		m.queue = m.queue[1:]
		m.busy++
		h := m.h
		m.mu.Unlock()

		stats.RecordDelivered(next.p)
		h(next.from, next.p)

		m.mu.Lock()
		m.busy--
	}
}

// Idler is a queue an IdleCut can probe.
type Idler interface {
	// Idle reports whether the queue holds no work, queued or running.
	Idle() bool
}

// IdleCut decides whether a set of queues is idle as one consistent
// cut. Probing the queues one by one is not enough: a handler running
// on a queue the sweep has not reached yet can enqueue into one it has
// already passed and return, and the sweep then finds every queue idle
// at the moment it looked while a delivery is still queued. So every
// enqueue ticks a counter — under the queue's lock, before it appends —
// and a clean sweep only counts if the counter did not move while it
// ran. That suffices: a queue found idle can only become busy again
// through an enqueue, so with no tick between the two counter reads
// every queue is still idle at the second one, and since a handler
// sends before it returns, whatever arrives later comes from outside
// the network.
//
// The helper reads no clock (determcheck covers this package); callers
// pace their own polling.
type IdleCut struct {
	ticks atomic.Uint64
	mu    sync.Mutex
	parts []Idler // append-only
}

// Watch adds a queue to the cut. Queues are watched from creation,
// before their first enqueue, and never leave.
func (c *IdleCut) Watch(q Idler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.parts = append(c.parts, q)
}

// Tick records one enqueue into a watched queue.
func (c *IdleCut) Tick() { c.ticks.Add(1) }

// Idle reports whether every watched queue was idle at one instant.
func (c *IdleCut) Idle() bool {
	// Read the counter before the set of queues: a queue created after
	// the read ticks on its first enqueue and fails the comparison.
	before := c.ticks.Load()
	c.mu.Lock()
	parts := c.parts
	c.mu.Unlock()
	for _, q := range parts {
		if !q.Idle() {
			return false
		}
	}
	return c.ticks.Load() == before
}
