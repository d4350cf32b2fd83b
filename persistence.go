package causalgc

import "sync"

// closeGate serialises Node.Close against in-flight operations:
// operations hold the read side for their duration, Close takes the
// write side exactly once. After close, enter fails with ErrNodeClosed,
// so no operation can race the teardown of the persistence journal.
type closeGate struct {
	mu     sync.RWMutex
	closed bool
}

// enter admits an operation; the caller must exit() when done.
func (g *closeGate) enter() error {
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return ErrNodeClosed
	}
	return nil
}

func (g *closeGate) exit() { g.mu.RUnlock() }

// close marks the gate closed, waiting out in-flight operations. It
// reports whether this call performed the transition.
func (g *closeGate) close() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.closed = true
	return true
}
