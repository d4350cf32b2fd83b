package transport_test

import (
	"sync"
	"testing"
	"time"

	"causalgc/internal/wire"
	"causalgc/transport"
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
