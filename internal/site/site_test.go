package site_test

import (
	"sync"
	"testing"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
)

func twoSites(t *testing.T) (*netsim.Sim, *site.Site, *site.Site) {
	t.Helper()
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	s1 := site.New(1, net, site.DefaultOptions())
	s2 := site.New(2, net, site.DefaultOptions())
	return net, s1, s2
}

func run(t *testing.T, net *netsim.Sim) {
	t.Helper()
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestSiteNewLocal(t *testing.T) {
	_, s1, _ := twoSites(t)
	ref, err := s1.NewLocal(s1.Root().Obj)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.HasObject(ref.Obj) {
		t.Fatal("object missing")
	}
	if s1.NumObjects() != 2 {
		t.Errorf("NumObjects = %d, want 2", s1.NumObjects())
	}
	if _, err := s1.NewLocal(ids.ObjectID{Site: 1, Seq: 99}); err == nil {
		t.Error("NewLocal with unknown holder must error")
	}
}

func TestSiteNewLocalIn(t *testing.T) {
	_, s1, _ := twoSites(t)
	cl, err := s1.NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	a, err := s1.NewLocalIn(s1.Root().Obj, cl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s1.NewLocalIn(s1.Root().Obj, cl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cluster != cl || b.Cluster != cl {
		t.Error("objects not in the requested cluster")
	}
	if _, err := s1.NewLocalIn(s1.Root().Obj, ids.ClusterID{Site: 9, Seq: 1}); err == nil {
		t.Error("foreign cluster must error")
	}
}

func TestSiteNewRemoteLifecycle(t *testing.T) {
	net, s1, s2 := twoSites(t)
	ref, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	run(t, net)
	if !s2.HasObject(ref.Obj) {
		t.Fatal("remote object not created")
	}
	if _, err := s1.NewRemote(s1.Root().Obj, 1); err == nil {
		t.Error("NewRemote to self must error")
	}
	// Drop the only reference: GGD + local GC reclaim it.
	if err := s1.DropRefs(s1.Root().Obj, ref); err != nil {
		t.Fatal(err)
	}
	run(t, net)
	if s2.HasObject(ref.Obj) {
		t.Fatal("dropped remote object survived")
	}
	if !s2.ClusterRemoved(ref.Cluster) {
		t.Fatal("cluster not removed")
	}
	if s2.EngineStats().Removed != 1 {
		t.Errorf("engine Removed = %d", s2.EngineStats().Removed)
	}
}

func TestSiteSendRefValidation(t *testing.T) {
	net, s1, s2 := twoSites(t)
	ref, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	run(t, net)
	other, err := s2.NewLocal(s2.Root().Obj)
	if err != nil {
		t.Fatal(err)
	}
	// s1's root does not hold `other`: sending it must fail.
	if err := s1.SendRef(s1.Root().Obj, ref, other); err == nil {
		t.Error("SendRef of a non-held reference must error")
	}
	// Unknown sender.
	if err := s1.SendRef(ids.ObjectID{Site: 1, Seq: 77}, ref, ref); err == nil {
		t.Error("SendRef from unknown object must error")
	}
	// Sending one's own reference is always legal.
	if err := s2.SendRef(ref.Obj, heap.Ref{Obj: s2.Root().Obj, Cluster: s2.Root().Cluster},
		heap.Ref{Obj: ref.Obj, Cluster: ref.Cluster}); err != nil {
		t.Errorf("self-reference send: %v", err)
	}
	run(t, net)
}

func TestSiteSendRefLocalDestination(t *testing.T) {
	net, s1, _ := twoSites(t)
	a, err := s1.NewLocal(s1.Root().Obj)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s1.NewLocal(s1.Root().Obj)
	if err != nil {
		t.Fatal(err)
	}
	// Copy root's reference to a into b: a local third-party transfer;
	// no network message.
	base := net.Stats().TotalSent()
	if err := s1.SendRef(s1.Root().Obj, b, a); err != nil {
		t.Fatal(err)
	}
	if net.Stats().TotalSent() != base {
		t.Error("local SendRef sent a message")
	}
	// Now a survives dropping the root edge (held by b).
	if err := s1.DropRefs(s1.Root().Obj, a); err != nil {
		t.Fatal(err)
	}
	run(t, net)
	if !s1.HasObject(a.Obj) {
		t.Fatal("locally held object collected (UNSAFE)")
	}
	// Dropping b kills both.
	if err := s1.DropRefs(s1.Root().Obj, b); err != nil {
		t.Fatal(err)
	}
	run(t, net)
	s1.Collect()
	if s1.HasObject(a.Obj) || s1.HasObject(b.Obj) {
		t.Fatal("garbage chain survived")
	}
}

func TestSiteClearSlot(t *testing.T) {
	net, s1, _ := twoSites(t)
	ref, err := s1.NewLocal(s1.Root().Obj)
	if err != nil {
		t.Fatal(err)
	}
	// The root's slot 0 holds ref.
	if err := s1.ClearSlot(s1.Root().Obj, 0); err != nil {
		t.Fatal(err)
	}
	run(t, net)
	if s1.HasObject(ref.Obj) {
		t.Fatal("cleared object survived")
	}
}

func TestSiteConcurrentMutators(t *testing.T) {
	// The Runtime must be safe under concurrent mutator calls (async
	// network + goroutines).
	net := netsim.NewAsync(netsim.Faults{Seed: 1})
	defer net.Close()
	s1 := site.New(1, net, site.DefaultOptions())
	s2 := site.New(2, net, site.DefaultOptions())
	_ = s2

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				ref, err := s1.NewRemote(s1.Root().Obj, 2)
				if err != nil {
					errs <- err
					return
				}
				if err := s1.DropRefs(s1.Root().Obj, ref); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	net.Quiesce()
}

func TestSiteRefreshIsSafeNoop(t *testing.T) {
	net, s1, s2 := twoSites(t)
	ref, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	run(t, net)
	s1.Refresh()
	s2.Refresh()
	run(t, net)
	if !s2.HasObject(ref.Obj) {
		t.Fatal("refresh collected a live object")
	}
}

func TestSiteLogIntrospection(t *testing.T) {
	net, s1, s2 := twoSites(t)
	ref, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	run(t, net)
	l := s2.LogSnapshot(ref.Cluster)
	if l == nil {
		t.Fatal("no log for live cluster")
	}
	if got := l.Own().Get(s1.Root().Cluster); !got.Live() {
		t.Errorf("creator stamp = %v, want live", got)
	}
	if s2.Clock(ref.Cluster) != 0 {
		t.Errorf("fresh cluster clock = %d, want 0", s2.Clock(ref.Cluster))
	}
	if s1.LogSnapshot(ref.Cluster) != nil {
		t.Error("foreign cluster has a local log")
	}
}
