package netsim

import (
	"sync"
	"testing"

	"causalgc/internal/ids"
)

// ping is a trivial test payload.
type ping struct {
	n int
}

func (p ping) Kind() string    { return "ping" }
func (p ping) ApproxSize() int { return 8 }

func TestSimDeliversFIFOPerChannel(t *testing.T) {
	s := NewSim(Faults{Seed: 1})
	var got []int
	s.Register(2, func(from ids.SiteID, p Payload) {
		got = append(got, p.(ping).n)
	})
	for i := 0; i < 10; i++ {
		s.Send(1, 2, ping{n: i})
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: got %v", got)
		}
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", s.Pending())
	}
	if len(got) != 10 {
		t.Errorf("delivered %d, want 10", len(got))
	}
}

func TestSimReorder(t *testing.T) {
	// With reordering enabled and many messages, delivery order must
	// differ from send order for at least one seed (probabilistic but
	// deterministic given the seed).
	s := NewSim(Faults{Seed: 42, Reorder: true})
	var got []int
	s.Register(2, func(from ids.SiteID, p Payload) {
		got = append(got, p.(ping).n)
	})
	for i := 0; i < 50; i++ {
		s.Send(1, 2, ping{n: i})
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	inOrder := true
	for i, v := range got {
		if v != i {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("reordering produced a perfectly ordered run; suspicious")
	}
	if len(got) != 50 {
		t.Errorf("delivered %d, want 50", len(got))
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() []int {
		s := NewSim(Faults{Seed: 7, Reorder: true, DropProb: 0.2, DupProb: 0.2})
		var got []int
		for site := ids.SiteID(2); site <= 4; site++ {
			site := site
			s.Register(site, func(from ids.SiteID, p Payload) {
				got = append(got, int(site)*1000+p.(ping).n)
			})
		}
		for i := 0; i < 30; i++ {
			s.Send(1, ids.SiteID(2+i%3), ping{n: i})
		}
		if _, err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSimDrop(t *testing.T) {
	s := NewSim(Faults{Seed: 3, DropProb: 1.0})
	delivered := 0
	s.Register(2, func(from ids.SiteID, p Payload) { delivered++ })
	for i := 0; i < 5; i++ {
		s.Send(1, 2, ping{n: i})
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Errorf("delivered %d with DropProb=1, want 0", delivered)
	}
	sent, del, dropped, _, _ := s.Stats().Kind("ping")
	if sent != 5 || del != 0 || dropped != 5 {
		t.Errorf("stats sent=%d delivered=%d dropped=%d, want 5/0/5", sent, del, dropped)
	}
}

func TestSimDuplicate(t *testing.T) {
	s := NewSim(Faults{Seed: 3, DupProb: 1.0})
	delivered := 0
	s.Register(2, func(from ids.SiteID, p Payload) { delivered++ })
	s.Send(1, 2, ping{n: 1})
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Errorf("delivered %d with DupProb=1, want 2", delivered)
	}
}

func TestSimPartition(t *testing.T) {
	s := NewSim(Faults{Seed: 3})
	s.SetPartition(func(from, to ids.SiteID) bool { return to == 2 })
	d2, d3 := 0, 0
	s.Register(2, func(ids.SiteID, Payload) { d2++ })
	s.Register(3, func(ids.SiteID, Payload) { d3++ })
	s.Send(1, 2, ping{})
	s.Send(1, 3, ping{})
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if d2 != 0 || d3 != 1 {
		t.Errorf("partition: d2=%d d3=%d, want 0,1", d2, d3)
	}
	s.SetPartition(nil)
	s.Send(1, 2, ping{})
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if d2 != 1 {
		t.Errorf("healed partition: d2=%d, want 1", d2)
	}
}

func TestSimHandlerMaySend(t *testing.T) {
	// A handler that sends during delivery (the GGD propagation pattern)
	// must not deadlock or be lost.
	s := NewSim(Faults{Seed: 1})
	hops := 0
	s.Register(1, func(from ids.SiteID, p Payload) {
		hops++
		if n := p.(ping).n; n > 0 {
			s.Send(1, 2, ping{n: n - 1})
		}
	})
	s.Register(2, func(from ids.SiteID, p Payload) {
		hops++
		s.Send(2, 1, p)
	})
	s.Send(2, 1, ping{n: 4})
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	// 1 receives 4,3,2,1,0 (5 deliveries), 2 receives 4,3,2,1 (4).
	if hops != 9 {
		t.Errorf("hops = %d, want 9", hops)
	}
}

func TestSimRunBudget(t *testing.T) {
	s := NewSim(Faults{Seed: 1})
	// Infinite ping-pong: the budget must trip.
	s.Register(1, func(from ids.SiteID, p Payload) { s.Send(1, 2, p) })
	s.Register(2, func(from ids.SiteID, p Payload) { s.Send(2, 1, p) })
	s.Send(1, 2, ping{})
	if _, err := s.Run(100); err == nil {
		t.Fatal("Run must report an exhausted budget with messages pending")
	}
}

func TestSimUnregisteredDestination(t *testing.T) {
	s := NewSim(Faults{Seed: 1})
	s.Send(1, 9, ping{})
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	_, _, dropped, _, _ := s.Stats().Kind("ping")
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1 (straggler to unknown site)", dropped)
	}
}

func TestStatsAccounting(t *testing.T) {
	st := NewStats()
	st.RecordSent(ping{})
	st.RecordSent(ping{})
	st.RecordDelivered(ping{})
	st.RecordDropped(ping{})
	st.RecordDuplicated(ping{})
	sent, del, drop, dup, bytes := st.Kind("ping")
	if sent != 2 || del != 1 || drop != 1 || dup != 1 || bytes != 16 {
		t.Errorf("got %d/%d/%d/%d/%d", sent, del, drop, dup, bytes)
	}
	if st.TotalSent() != 2 {
		t.Errorf("TotalSent = %d", st.TotalSent())
	}
	if st.Sent("ping") != 2 {
		t.Error("Sent accessor wrong")
	}
	if st.String() == "" {
		t.Error("String should render something")
	}
	st.Reset()
	if st.TotalSent() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestAsyncDelivery(t *testing.T) {
	n := NewAsync(Faults{Seed: 1})
	defer n.Close()

	var mu sync.Mutex
	got := make(map[int]bool)
	done := make(chan struct{})
	n.Register(2, func(from ids.SiteID, p Payload) {
		mu.Lock()
		got[p.(ping).n] = true
		full := len(got) == 20
		mu.Unlock()
		if full {
			close(done)
		}
	})
	for i := 0; i < 20; i++ {
		n.Send(1, 2, ping{n: i})
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 20; i++ {
		if !got[i] {
			t.Fatalf("message %d not delivered", i)
		}
	}
}

func TestAsyncHandlerMaySend(t *testing.T) {
	n := NewAsync(Faults{Seed: 1})
	defer n.Close()

	done := make(chan struct{})
	n.Register(1, func(from ids.SiteID, p Payload) {
		if v := p.(ping).n; v > 0 {
			n.Send(1, 2, ping{n: v - 1})
		} else {
			close(done)
		}
	})
	n.Register(2, func(from ids.SiteID, p Payload) {
		n.Send(2, 1, p)
	})
	n.Send(9, 1, ping{n: 10})
	<-done
}

func TestAsyncQuiesce(t *testing.T) {
	n := NewAsync(Faults{Seed: 1})
	defer n.Close()

	var mu sync.Mutex
	count := 0
	n.Register(1, func(from ids.SiteID, p Payload) {
		if v := p.(ping).n; v > 0 {
			n.Send(1, 1, ping{n: v - 1})
		}
		mu.Lock()
		count++
		mu.Unlock()
	})
	n.Send(9, 1, ping{n: 50})
	n.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if count != 51 {
		t.Errorf("count = %d at quiescence, want 51", count)
	}
}

func TestAsyncCloseIdempotentAndDropsLateSends(t *testing.T) {
	n := NewAsync(Faults{Seed: 1})
	n.Register(1, func(ids.SiteID, Payload) {})
	n.Close()
	n.Close() // must not panic or deadlock
	n.Send(1, 1, ping{})
	_, _, dropped, _, _ := n.Stats().Kind("ping")
	if dropped != 1 {
		t.Errorf("late send dropped = %d, want 1", dropped)
	}
}

func TestAsyncSendToUnknownSiteDropped(t *testing.T) {
	n := NewAsync(Faults{Seed: 1})
	defer n.Close()
	n.Send(1, 42, ping{})
	_, _, dropped, _, _ := n.Stats().Kind("ping")
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
}
