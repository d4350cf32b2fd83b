package netsim

import (
	"sync/atomic"
	"testing"

	"causalgc/internal/ids"
)

// TestAsyncQuiesceStress bounces one token "backwards" around a ring of
// endpoints (site i forwards to site i-1) and asserts that the moment
// Quiesce returns every hop has been handled. A sweep that checks the
// endpoints one by one without certifying that nothing moved meanwhile
// can pass an endpoint, have the token hop into it behind the cursor,
// find the sender idle, and declare quiescence with a delivery still
// queued; the activity-counter cut cannot.
func TestAsyncQuiesceStress(t *testing.T) {
	const (
		endpoints = 1024
		hops      = 400
		trials    = 200
	)
	for trial := 0; trial < trials; trial++ {
		n := NewAsync(Faults{Seed: int64(trial)})
		var handled atomic.Int64
		for i := 1; i <= endpoints; i++ {
			site := ids.SiteID(i)
			prev := ids.SiteID((i+endpoints-2)%endpoints + 1)
			n.Register(site, func(_ ids.SiteID, p Payload) {
				if v := p.(ping).n; v > 0 {
					n.Send(site, prev, ping{n: v - 1})
				}
				handled.Add(1)
			})
		}
		n.Send(ids.SiteID(endpoints), ids.SiteID(endpoints), ping{n: hops})
		n.Quiesce()
		got := handled.Load()
		n.Close()
		if got != hops+1 {
			t.Fatalf("trial %d: Quiesce returned with %d of %d deliveries handled", trial, got, hops+1)
		}
	}
}
