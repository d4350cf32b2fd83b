package tcp_test

import (
	"net"
	"testing"
	"time"

	"causalgc"
	"causalgc/internal/wire"
	"causalgc/transport"
	"causalgc/transport/tcp"
)

// dial returns two loopback TCP transports wired to each other, hosting
// site 1 and site 2 respectively, so every inter-site message crosses a
// real socket.
func pair(t *testing.T) (*tcp.Network, *tcp.Network) {
	t.Helper()
	netA, err := tcp.New(tcp.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	netB, err := tcp.New(tcp.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		netA.Close()
		t.Fatal(err)
	}
	netA.SetPeer(2, netB.Addr().String())
	netB.SetPeer(1, netA.Addr().String())
	t.Cleanup(func() {
		netA.Close()
		netB.Close()
	})
	return netA, netB
}

// settle drives both nodes (collect + refresh) until the predicate holds
// or the deadline passes. Refresh rounds make progress independent of
// message arrival order, so the loop converges without a global view.
func settle(t *testing.T, nodes []*causalgc.Node, deadline time.Duration, done func() bool) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if done() {
			return
		}
		for _, n := range nodes {
			n.Collect()
			n.Refresh()
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", deadline)
}

// TestLoopbackCycleReclaimed runs the GGD round trip over real sockets:
// site 1 creates an object on site 2, the remote object is handed a
// reference back (a two-site cycle), the root reference is dropped, and
// the distributed cycle must be detected and reclaimed on both ends.
func TestLoopbackCycleReclaimed(t *testing.T) {
	netA, netB := pair(t)
	n1 := causalgc.NewNode(1, causalgc.WithTransport(netA))
	n2 := causalgc.NewNode(2, causalgc.WithTransport(netB))
	nodes := []*causalgc.Node{n1, n2}

	// Remote create: a lives on site 2, held by site 1's root.
	a, err := n1.NewRemote(n1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	settle(t, nodes, 5*time.Second, func() bool { return n2.HasObject(a.Obj) })

	// Site 2 creates b back on site 1 and closes the cycle a ⇄ b.
	b, err := n2.NewRemote(a.Obj, 1)
	if err != nil {
		t.Fatal(err)
	}
	settle(t, nodes, 5*time.Second, func() bool { return n1.HasObject(b.Obj) })
	if err := n2.SendRef(a.Obj, b, a); err != nil {
		t.Fatal(err)
	}
	// Wait until b actually holds a ref to a (the transfer crossed the
	// socket) before dropping the root edge.
	settle(t, nodes, 5*time.Second, func() bool {
		for _, o := range n1.Objects() {
			if o.Obj == b.Obj {
				return n1.NumObjects() == 2
			}
		}
		return false
	})

	// Drop the only root reference: {a, b} is now a distributed cycle of
	// garbage spanning two processes' worth of transports.
	if err := n1.DropRefs(n1.Root().Obj, a); err != nil {
		t.Fatal(err)
	}
	settle(t, nodes, 10*time.Second, func() bool {
		return n1.NumObjects() == 1 && n2.NumObjects() == 1
	})

	if !n2.ClusterRemoved(a.Cluster) {
		t.Error("site 2 did not remove a's cluster")
	}
	if !n1.ClusterRemoved(b.Cluster) {
		t.Error("site 1 did not remove b's cluster")
	}
	if rep := causalgc.Check(n1, n2); !rep.Clean() {
		t.Errorf("oracle not clean: %v", rep)
	}

	// The cycle really crossed sockets: both transports carried traffic.
	if netA.Stats().TotalSent() == 0 || netB.Stats().TotalSent() == 0 {
		t.Error("no socket traffic recorded")
	}
}

// foreign is a payload type the wire codec does not define.
type foreign struct{}

func (foreign) Kind() string    { return "foreign" }
func (foreign) ApproxSize() int { return 1 }

// TestForeignPayloadDropped: the wire payload set is closed. A payload
// of any other type cannot be encoded for a socket, so Send counts it as
// dropped, and the connection carries the next wire frame as usual.
func TestForeignPayloadDropped(t *testing.T) {
	netA, netB := pair(t)
	got := make(chan transport.Payload, 2)
	netB.Register(2, func(_ transport.SiteID, p transport.Payload) { got <- p })

	netA.Send(1, 2, foreign{})
	if sent, _, dropped, _, _ := netA.Stats().Kind("foreign"); sent != 1 || dropped != 1 {
		t.Fatalf("foreign payload: sent %d dropped %d, want 1 and 1", sent, dropped)
	}
	ack := wire.FrameAck{Stream: 1, Seq: 3}
	netA.Send(1, 2, ack)
	select {
	case p := <-got:
		if p != transport.Payload(ack) {
			t.Fatalf("delivered %#v, want %#v", p, ack)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the wire frame after the foreign one never arrived")
	}
}

// TestReconnect checks that a peer that starts late still receives
// frames: the writer redials the known address with backoff instead of
// losing the mutator message.
func TestReconnect(t *testing.T) {
	// Reserve an address for site 2 without a process behind it yet.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := probe.Addr().String()
	probe.Close()

	netA, err := tcp.New(tcp.Config{
		Listen:      "127.0.0.1:0",
		Peers:       map[causalgc.SiteID]string{2: addrB},
		MaxBackoff:  50 * time.Millisecond,
		DialTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netA.Close() })
	n1 := causalgc.NewNode(1, causalgc.WithTransport(netA))

	// Send towards site 2 before its process exists: the frame queues
	// and the writer keeps redialing.
	a, err := n1.NewRemote(n1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let a few dials fail

	// Now site 2 comes up on its announced address.
	netB, err := tcp.New(tcp.Config{
		Listen: addrB,
		Peers:  map[causalgc.SiteID]string{1: netA.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netB.Close() })
	n2 := causalgc.NewNode(2, causalgc.WithTransport(netB))

	deadline := time.Now().Add(10 * time.Second)
	for !n2.HasObject(a.Obj) {
		if time.Now().After(deadline) {
			t.Fatal("creation message never arrived after reconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClosePromptWithDeadPeer: a writer stuck in its dial/backoff loop
// against a dead peer must not hold Close up — the cancelled dial and
// interruptible backoff release the goroutine immediately.
func TestClosePromptWithDeadPeer(t *testing.T) {
	// Reserve a port, then close it: nothing listens there, so every
	// dial fails and the writer lives in its reconnect loop.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	netA, err := tcp.New(tcp.Config{
		Listen:      "127.0.0.1:0",
		Peers:       map[causalgc.SiteID]string{2: deadAddr},
		DialTimeout: 30 * time.Second, // a dial that would block far past the test
		MaxBackoff:  30 * time.Second, // a backoff sleep that would too
	})
	if err != nil {
		t.Fatal(err)
	}
	n1 := causalgc.NewNode(1, causalgc.WithTransport(netA))
	if _, err := n1.NewRemote(n1.Root().Obj, 2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the writer enter its loop

	done := make(chan error, 1)
	go func() { done <- netA.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked behind the reconnect loop")
	}
}
