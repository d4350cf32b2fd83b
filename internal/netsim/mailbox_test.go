package netsim

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"causalgc/internal/ids"
)

// gated is a mailbox under test whose handlers log what they received
// and block until the test releases them one delivery at a time.
type gated struct {
	box     *Mailbox
	cut     IdleCut
	stats   *Stats
	wg      sync.WaitGroup
	entered chan string // "<handler><n>", sent as a handler starts
	release chan struct{}
}

func startGated() *gated {
	g := &gated{stats: NewStats(), entered: make(chan string, 16), release: make(chan struct{})}
	g.box = StartMailbox(g.handler("a"), &g.cut, g.stats, &g.wg)
	return g
}

func (g *gated) handler(name string) Handler {
	return func(_ ids.SiteID, p Payload) {
		g.entered <- name + string(rune('0'+p.(ping).n))
		<-g.release
	}
}

// step lets the running handler return.
func (g *gated) step(t *testing.T) {
	t.Helper()
	select {
	case g.release <- struct{}{}:
	case <-time.After(5 * time.Second):
		t.Fatal("no handler waiting to be released")
	}
}

func (g *gated) expect(t *testing.T, want string) {
	t.Helper()
	select {
	case got := <-g.entered:
		if got != want {
			t.Fatalf("delivery %q, want %q", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("delivery %q never started", want)
	}
}

// TestMailboxFIFOAcrossHandlerSwap: a handler swap takes effect at the
// next pop and never reorders what is queued.
func TestMailboxFIFOAcrossHandlerSwap(t *testing.T) {
	g := startGated()
	for i := 1; i <= 3; i++ {
		if !g.box.Enqueue(9, ping{n: i}) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	g.expect(t, "a1") // popped under the old handler, which keeps it
	g.box.SetHandler(g.handler("b"))
	g.step(t)
	g.expect(t, "b2")
	g.step(t)
	g.expect(t, "b3")
	g.step(t)
	g.box.Close()
	g.wg.Wait()
	if got := g.stats.Delivered("ping"); got != 3 {
		t.Errorf("delivered = %d, want 3", got)
	}
}

// TestMailboxCloseDrainsThenStops: Close lets the queued deliveries
// reach the handler, then the goroutine exits; a late enqueue is
// refused and leaves no trace.
func TestMailboxCloseDrainsThenStops(t *testing.T) {
	g := startGated()
	for i := 1; i <= 3; i++ {
		g.box.Enqueue(9, ping{n: i})
	}
	g.expect(t, "a1")
	g.box.Close()
	if g.box.Enqueue(9, ping{n: 4}) {
		t.Error("enqueue accepted after Close")
	}
	g.step(t)
	g.expect(t, "a2")
	g.step(t)
	g.expect(t, "a3")
	g.step(t)
	g.wg.Wait() // the delivery goroutine exits once the queue is empty
	if got := g.stats.Delivered("ping"); got != 3 {
		t.Errorf("delivered = %d, want 3 (the late enqueue must not be delivered)", got)
	}
	if !g.cut.Idle() {
		t.Error("drained, closed mailbox is not idle")
	}
}

// TestMailboxIdleCountsRunningHandler: a popped message keeps the
// mailbox busy until its handler returns.
func TestMailboxIdleCountsRunningHandler(t *testing.T) {
	g := startGated()
	if !g.cut.Idle() {
		t.Fatal("fresh mailbox is not idle")
	}
	g.box.Enqueue(9, ping{n: 1})
	g.expect(t, "a1")
	if g.box.Idle() || g.cut.Idle() {
		t.Error("idle while a handler is running on an empty queue")
	}
	g.step(t)
	g.box.Close()
	g.wg.Wait()
	if !g.box.Idle() || !g.cut.Idle() {
		t.Error("not idle after the handler returned")
	}
}

// tracked is a pointer payload, so a finalizer can witness its release
// (the pointer field keeps it out of the tiny allocator, whose blocks
// are shared and may never be finalized).
type tracked struct {
	n int
	_ *int
}

func (*tracked) Kind() string    { return "tracked" }
func (*tracked) ApproxSize() int { return 8 }

// TestMailboxReleasesPoppedSlots: the queue's backing array must not pin
// a delivered payload while later messages keep the array alive.
func TestMailboxReleasesPoppedSlots(t *testing.T) {
	var (
		cut     IdleCut
		wg      sync.WaitGroup
		entered = make(chan int)
		release = make(chan struct{})
	)
	box := StartMailbox(func(_ ids.SiteID, p Payload) {
		entered <- p.(*tracked).n
		<-release
	}, &cut, NewStats(), &wg)

	// Message 0 holds the handler, so 1 and 2 queue up side by side in
	// one backing array.
	box.Enqueue(9, &tracked{n: 0})
	<-entered
	freed := make(chan struct{})
	func() { // its own frame: no reference to payload 1 survives it
		first := &tracked{n: 1}
		runtime.SetFinalizer(first, func(*tracked) { close(freed) })
		box.Enqueue(9, first)
	}()
	box.Enqueue(9, &tracked{n: 2})
	release <- struct{}{}
	<-entered
	release <- struct{}{} // 1 delivered and done
	<-entered             // 2 is running: the backing array is live

	deadline := time.After(5 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-deadline:
			t.Fatal("delivered payload still reachable: popped slot not cleared")
		case <-time.After(time.Millisecond):
		}
	}
	release <- struct{}{}
	box.Close()
	wg.Wait()
}
