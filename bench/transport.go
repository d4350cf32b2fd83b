package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"causalgc/internal/wire"
	"causalgc/transport"
	"causalgc/transport/tcp"
)

// mesh gives every site its own tcp.Network on a loopback port, so each
// frame between two sites crosses a real socket. (One shared
// tcp.Network would deliver between its local sites in memory.)
type mesh struct {
	nets map[transport.SiteID]*tcp.Network
	// stats satisfies the Transport interface only; traffic is counted
	// in the per-site networks and summed by env.kindStats.
	stats *transport.Stats
}

func newMesh(sites int) (*mesh, error) {
	m := &mesh{nets: make(map[transport.SiteID]*tcp.Network), stats: transport.NewStats()}
	for i := 1; i <= sites; i++ {
		nw, err := tcp.New(tcp.Config{Listen: "127.0.0.1:0"})
		if err != nil {
			m.Close()
			return nil, err
		}
		m.nets[transport.SiteID(i)] = nw
	}
	for i, a := range m.nets {
		for j, b := range m.nets {
			if i != j {
				a.SetPeer(j, b.Addr().String())
			}
		}
	}
	return m, nil
}

func (m *mesh) Register(site transport.SiteID, h transport.Handler) {
	m.nets[site].Register(site, h)
}

func (m *mesh) Send(from, to transport.SiteID, p transport.Payload) {
	m.nets[from].Send(from, to, p)
}

func (m *mesh) Stats() *transport.Stats { return m.stats }

func (m *mesh) Close() error {
	var first error
	for _, nw := range m.nets {
		if err := nw.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// wrapped is the transport every workload but churn-faults hands to
// causalgc. It counts messages sent and handlers returned, which makes
// quiescence exact on any fault-free substrate: a handler sends before
// it returns, so sent == handled means nothing is in flight and no
// handler is running. When a recorder is attached it also records one
// transport.send span per Send and one transport.deliver span per
// handler invocation.
type wrapped struct {
	inner transport.Transport
	// det is the inner transport when it is the deterministic
	// simulator, which delivers only when stepped.
	det *transport.Deterministic
	rec *recorder

	sent, handled atomic.Int64
	// idle is signalled by the handler whose return makes handled catch
	// up with sent; one pending signal is enough for the single waiter.
	idle chan struct{}
	// envelopes counts coalesced sends and enveloped the frames inside
	// them (the substrate's statistics see an envelope as one payload).
	envelopes, enveloped atomic.Int64

	mu sync.Mutex
	// inFlight holds, per channel, the send spans not yet delivered:
	// channels are FIFO on every substrate wrapped here, so the oldest
	// one is the parent of the next delivery.
	inFlight map[[2]transport.SiteID][]uint64
	failed   error
}

func wrap(inner transport.Transport, rec *recorder) *wrapped {
	w := &wrapped{inner: inner, rec: rec, inFlight: make(map[[2]transport.SiteID][]uint64), idle: make(chan struct{}, 1)}
	w.det, _ = inner.(*transport.Deterministic)
	return w
}

func (w *wrapped) Register(site transport.SiteID, h transport.Handler) {
	w.inner.Register(site, func(from transport.SiteID, p transport.Payload) {
		var tok spanToken
		if w.rec != nil && w.rec.on.Load() {
			ch := [2]transport.SiteID{from, site}
			w.mu.Lock()
			var parent uint64
			if q := w.inFlight[ch]; len(q) > 0 {
				parent, w.inFlight[ch] = q[0], q[1:]
			}
			w.mu.Unlock()
			tok = w.rec.begin(spanDeliver, 0, parent)
		}
		h(from, p)
		w.rec.end(tok)
		if w.handled.Add(1) == w.sent.Load() {
			select {
			case w.idle <- struct{}{}:
			default:
			}
		}
	})
}

func (w *wrapped) Send(from, to transport.SiteID, p transport.Payload) {
	w.sent.Add(1)
	if env, ok := p.(wire.Envelope); ok {
		w.envelopes.Add(1)
		w.enveloped.Add(int64(len(env.Frames)))
	}
	tok := w.rec.begin(spanSend, 0, 0)
	if tok.id != 0 {
		ch := [2]transport.SiteID{from, to}
		w.mu.Lock()
		w.inFlight[ch] = append(w.inFlight[ch], tok.id)
		w.mu.Unlock()
	}
	w.inner.Send(from, to, p)
	w.rec.end(tok)
}

func (w *wrapped) Stats() *transport.Stats { return w.inner.Stats() }

// quiesceTimeout bounds one wait for quiescence; a frame lost on a
// fault-free substrate would otherwise hang the run.
const quiesceTimeout = 30 * time.Second

// quiesce delivers everything in flight and returns once no message is
// queued and no handler is running.
func (w *wrapped) quiesce() error {
	if w.det != nil {
		if _, err := w.det.Run(0); err != nil {
			return err
		}
	}
	// The waiter sleeps on idle rather than spinning: on a two-core box
	// a spinning client would take a core from the delivery goroutines
	// it is waiting for.
	deadline := time.NewTimer(quiesceTimeout)
	defer deadline.Stop()
	for w.sent.Load() != w.handled.Load() {
		select {
		case <-w.idle:
		case <-deadline.C:
			return fmt.Errorf("transport not quiescent after %v: %d sent, %d handled",
				quiesceTimeout, w.sent.Load(), w.handled.Load())
		}
	}
	return nil
}

// Quiesce lets causalgc.Cluster.Run (used inside the scenario builders)
// deliver through the wrapper, which hides the concrete simulator from
// NewCluster. Run cannot return this method's error, so it is kept for
// the driver, which checks failed after every builder call.
func (w *wrapped) Quiesce() {
	if err := w.quiesce(); err != nil {
		w.mu.Lock()
		if w.failed == nil {
			w.failed = err
		}
		w.mu.Unlock()
	}
}

// failure returns the first error a Quiesce call met.
func (w *wrapped) failure() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}
