package transport_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"causalgc/internal/wire"
	"causalgc/transport"
	"causalgc/transport/tcp"
)

// wirePayloads is one instance of every wire message the transports
// carry, with the fault-eligibility the protocol's recovery argument
// assumes: mutator traffic (creates, transfers, batch envelopes) is
// reliable, GGD control traffic tolerates loss.
var wirePayloads = []struct {
	name          string
	p             transport.Payload
	faultEligible bool
}{
	{"create", wire.Create{}, false},
	{"ref", wire.RefTransfer{}, false},
	{"destroy", wire.Destroy{}, true},
	{"propagate", wire.Propagate{}, true},
	{"assert", wire.Assert{}, true},
	{"frameack", wire.FrameAck{}, true},
	{"advance", wire.StreamAdvance{}, true},
	{"envelope-mut", wire.Envelope{Frames: []transport.Payload{wire.Create{}}}, false},
	{"envelope-ctl", wire.Envelope{Frames: []transport.Payload{wire.FrameAck{}}}, true},
}

// TestPayloadContract pins the Payload interface contract for every wire
// message: a non-empty stable kind, a positive size estimate, and the
// fault-eligibility split between mutator and control planes.
func TestPayloadContract(t *testing.T) {
	seen := map[string]bool{}
	for _, tc := range wirePayloads {
		kind := tc.p.Kind()
		if kind == "" {
			t.Errorf("%s: empty Kind", tc.name)
		}
		if tc.p.ApproxSize() <= 0 {
			t.Errorf("%s: ApproxSize %d, want > 0", tc.name, tc.p.ApproxSize())
		}
		if got := transport.FaultEligible(tc.p); got != tc.faultEligible {
			t.Errorf("%s: FaultEligible = %v, want %v", tc.name, got, tc.faultEligible)
		}
		seen[kind] = true
	}
	// An envelope's size covers its inner frames, not just the framing.
	env := wire.Envelope{Frames: []transport.Payload{wire.Create{}, wire.FrameAck{}}}
	if env.ApproxSize() <= (wire.Create{}).ApproxSize() {
		t.Errorf("envelope ApproxSize %d does not cover inner frames", env.ApproxSize())
	}
}

// TestStatsAccounting exercises the Stats surface through a
// deterministic transport with a fault plan: sends, deliveries, drops
// and duplications must reconcile, per kind and in the snapshot.
func TestStatsAccounting(t *testing.T) {
	tr := transport.NewDeterministic(transport.Faults{Seed: 7, DropProb: 0.3, DupProb: 0.2})
	delivered := 0
	tr.Register(1, func(from transport.SiteID, p transport.Payload) { delivered++ })

	const sends = 200
	for i := 0; i < sends; i++ {
		tr.Send(2, 1, wire.FrameAck{}) // control: fault-eligible
		tr.Send(2, 1, wire.Create{})   // mutator: exempt
	}
	if !tr.Drain(time.Second) {
		t.Fatal("deterministic transport did not drain")
	}

	sent, del, dropped, dup, bytes := tr.Stats().Kind(wire.KindFrameAck)
	if sent != sends {
		t.Errorf("frameack sent = %d, want %d", sent, sends)
	}
	if del+dropped != sent+dup {
		t.Errorf("frameack accounting broken: sent=%d delivered=%d dropped=%d dup=%d", sent, del, dropped, dup)
	}
	if dropped == 0 || dup == 0 {
		t.Errorf("fault plan never fired: dropped=%d dup=%d", dropped, dup)
	}
	if want := sends * (wire.FrameAck{}).ApproxSize(); bytes != want {
		t.Errorf("frameack bytes = %d, want %d", bytes, want)
	}

	// Application traffic is exempt from the same fault plan.
	if _, cdel, cdropped, cdup, _ := tr.Stats().Kind(wire.KindCreate); cdel != sends || cdropped != 0 || cdup != 0 {
		t.Errorf("create traffic faulted: delivered=%d dropped=%d dup=%d", cdel, cdropped, cdup)
	}
	// Delivered already counts duplicated copies (each duplicate is a
	// second enqueue, delivered and recorded like any other message).
	if delivered != del+sends {
		t.Errorf("handler saw %d deliveries, stats say %d", delivered, del+sends)
	}

	// The snapshot mirrors the per-kind accessors and totals.
	snap := tr.Stats().Snapshot()
	ks, ok := snap[wire.KindFrameAck]
	if !ok || ks.Sent != sent || ks.Delivered != del || ks.Dropped != dropped || ks.Duplicated != dup || ks.Bytes != bytes {
		t.Errorf("Snapshot[frameack] = %+v, want sent=%d delivered=%d dropped=%d dup=%d bytes=%d",
			ks, sent, del, dropped, dup, bytes)
	}
	total := 0
	for _, k := range snap {
		total += k.Sent
	}
	if total != tr.Stats().TotalSent() {
		t.Errorf("snapshot total sent %d != TotalSent %d", total, tr.Stats().TotalSent())
	}

	tr.Stats().Reset()
	if tr.Stats().TotalSent() != 0 || len(tr.Stats().Snapshot()) != 0 {
		t.Error("Reset did not clear the counters")
	}
}

// Both in-memory backends advertise the Drain capability.
var (
	_ transport.Drainer = (*transport.Deterministic)(nil)
	_ transport.Drainer = (*transport.Async)(nil)
)

// TestDeterministicDrain: Drain on the simulator delivers everything
// queued, cascades included.
func TestDeterministicDrain(t *testing.T) {
	tr := transport.NewDeterministic(transport.Faults{Seed: 1})
	got := 0
	tr.Register(1, func(from transport.SiteID, p transport.Payload) { got++ })
	tr.Register(2, func(from transport.SiteID, p transport.Payload) {
		// A delivery that sends again: Drain must chase the cascade.
		tr.Send(2, 1, wire.FrameAck{})
	})
	for i := 0; i < 10; i++ {
		tr.Send(1, 2, wire.FrameAck{})
	}
	if !tr.Drain(time.Second) {
		t.Fatal("Drain reported failure on a quiet network")
	}
	if tr.Pending() != 0 || got != 10 {
		t.Errorf("after Drain: pending=%d cascaded deliveries=%d (want 0, 10)", tr.Pending(), got)
	}
}

// TestAsyncDrain: Drain on the concurrent backend waits for queues and
// in-flight handlers, and respects its timeout when a handler wedges.
func TestAsyncDrain(t *testing.T) {
	tr := transport.NewAsync(transport.Faults{})
	defer tr.Close()

	var mu sync.Mutex
	got := 0
	release := make(chan struct{})
	tr.Register(1, func(from transport.SiteID, p transport.Payload) {
		<-release
		mu.Lock()
		got++
		mu.Unlock()
	})

	tr.Send(2, 1, wire.FrameAck{})
	// The handler is blocked: a short Drain must time out, not hang.
	if tr.Drain(20 * time.Millisecond) {
		t.Error("Drain reported idle while a handler was in flight")
	}
	close(release)
	if !tr.Drain(2 * time.Second) {
		t.Fatal("Drain timed out after the handler unblocked")
	}
	mu.Lock()
	defer mu.Unlock()
	if got != 1 {
		t.Errorf("delivered %d, want 1", got)
	}
}

// substrate is one backend under the conformance table: the transport,
// how to wait until it has nothing left to do, how to tear it down, and
// its traffic summed over kinds (and, for tcp, over both processes'
// networks).
type substrate struct {
	transport.Transport
	settle func(t *testing.T)
	stop   func()
	totals func() transport.KindStats
}

func sum(stats ...*transport.Stats) transport.KindStats {
	var n transport.KindStats
	for _, st := range stats {
		for _, k := range st.Snapshot() {
			n.Sent += k.Sent
			n.Delivered += k.Delivered
			n.Dropped += k.Dropped
			n.Duplicated += k.Duplicated
		}
	}
	return n
}

func reconciled(k transport.KindStats) bool { return k.Delivered+k.Dropped == k.Sent+k.Duplicated }

// The in-memory backends run a fault plan, so the control traffic of
// the table is dropped and duplicated; tcp has no fault injection.
var conformanceFaults = transport.Faults{Seed: 7, DropProb: 0.2, DupProb: 0.2}

// sockets is two tcp.Networks, one hosting site 1 and one site 2, so
// every message between them crosses a real loopback socket.
type sockets struct{ a, b *tcp.Network }

func (s sockets) of(site transport.SiteID) *tcp.Network {
	if site == 1 {
		return s.a
	}
	return s.b
}
func (s sockets) Register(site transport.SiteID, h transport.Handler) { s.of(site).Register(site, h) }
func (s sockets) Send(from, to transport.SiteID, p transport.Payload) { s.of(from).Send(from, to, p) }
func (s sockets) Stats() *transport.Stats                             { return s.a.Stats() }

var substrates = []struct {
	name string
	open func(t *testing.T) substrate
}{
	{"deterministic", func(t *testing.T) substrate {
		tr := transport.NewDeterministic(conformanceFaults)
		return substrate{
			Transport: tr,
			settle: func(t *testing.T) {
				if !tr.Drain(time.Second) {
					t.Fatal("Drain reported failure")
				}
			},
			// The simulator has no Close: tearing an endpoint down is
			// Unregister, and what is sent to it afterwards is lost
			// when its turn to be delivered comes.
			stop:   func() { tr.Unregister(1); tr.Unregister(2) },
			totals: func() transport.KindStats { return sum(tr.Stats()) },
		}
	}},
	{"async", func(t *testing.T) substrate {
		tr := transport.NewAsync(conformanceFaults)
		t.Cleanup(tr.Close)
		return substrate{
			Transport: tr,
			settle: func(t *testing.T) {
				if !tr.Drain(5 * time.Second) {
					t.Fatal("Drain timed out")
				}
			},
			stop:   tr.Close,
			totals: func() transport.KindStats { return sum(tr.Stats()) },
		}
	}},
	{"tcp", func(t *testing.T) substrate {
		var s sockets
		for _, n := range []**tcp.Network{&s.a, &s.b} {
			nw, err := tcp.New(tcp.Config{Listen: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { nw.Close() })
			*n = nw
		}
		s.a.SetPeer(2, s.b.Addr().String())
		s.b.SetPeer(1, s.a.Addr().String())
		totals := func() transport.KindStats { return sum(s.a.Stats(), s.b.Stats()) }
		return substrate{
			Transport: s,
			settle: func(t *testing.T) {
				// A frame between the two sockets is in neither
				// network's queues, so Drain is repeated until the books
				// balance: every send delivered or dropped, and (the
				// drains after that) every handler returned.
				for deadline := time.Now().Add(10 * time.Second); ; {
					if reconciled(totals()) && s.a.Drain(time.Second) && s.b.Drain(time.Second) && reconciled(totals()) {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("tcp pair did not settle: %+v", totals())
					}
					time.Sleep(time.Millisecond)
				}
			},
			stop:   func() { s.a.Close(); s.b.Close() },
			totals: totals,
		}
	}},
}

// TestConformance runs one table over all three backends: what a site
// runtime relies on must hold whichever substrate carries its frames.
func TestConformance(t *testing.T) {
	for _, backend := range substrates {
		t.Run(backend.name, func(t *testing.T) {
			tr := backend.open(t)
			tr.settle(t) // Drain is true on an idle transport

			// Deliveries cascade (site 2 echoes to site 1) and settling
			// chases them. Creates are application traffic: no faults.
			var first, second atomic.Int64
			tr.Register(1, func(transport.SiteID, transport.Payload) { first.Add(1) })
			tr.Register(2, func(_ transport.SiteID, p transport.Payload) { tr.Send(2, 1, p) })
			tr.Send(1, 2, wire.Create{})
			tr.settle(t)
			if first.Load() != 1 {
				t.Fatalf("echo not delivered after settling: %d", first.Load())
			}

			// Registering a site again swaps its handler.
			tr.Register(1, func(transport.SiteID, transport.Payload) { second.Add(1) })
			tr.Send(1, 2, wire.Create{})
			tr.settle(t)
			if first.Load() != 1 || second.Load() != 1 {
				t.Fatalf("after re-Register: old handler saw %d, new %d; want 1, 1", first.Load(), second.Load())
			}

			// Every send is booked exactly once as delivered or dropped,
			// duplicates as one more delivery or drop: control traffic
			// under the fault plan, plus an unroutable destination.
			for i := 0; i < 100; i++ {
				tr.Send(1, 2, wire.FrameAck{})
			}
			tr.Send(1, 42, wire.FrameAck{})
			tr.settle(t)
			k := tr.totals()
			if !reconciled(k) || k.Dropped == 0 {
				t.Errorf("books do not balance after a drain: %+v", k)
			}

			// A send after the teardown is booked as dropped.
			tr.stop()
			tr.Send(1, 2, wire.Create{})
			if d, ok := tr.Transport.(transport.Drainer); ok {
				d.Drain(time.Second) // the simulator books the loss on delivery
			}
			after := tr.totals()
			if after.Sent != k.Sent+1 || after.Dropped != k.Dropped+1 || after.Delivered != k.Delivered {
				t.Errorf("send after teardown: %+v, was %+v; want one more sent and dropped", after, k)
			}
		})
	}
}
