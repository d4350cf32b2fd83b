package wrc

import (
	"testing"

	"causalgc/internal/ids"
	"causalgc/internal/netsim"
)

func TestWRCAcyclicCollection(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	s1 := New(1, net, nil)
	s2 := New(2, net, nil)

	a := ids.ClusterID{Site: 1, Seq: 1}
	b := ids.ClusterID{Site: 2, Seq: 1}
	refA := s1.NewObject(a, true) // locally rooted holder
	_ = refA
	refB := s2.NewObject(b, false)

	// a holds b.
	if err := s1.Give(a, refB); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if s2.Removed() != 0 {
		t.Fatal("live object collected")
	}

	// a drops b: one return message, b collected.
	if err := s1.Drop(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if s2.Removed() != 1 {
		t.Fatal("acyclic garbage not collected")
	}
	if n := net.Stats().Sent("wrc.return"); n != 1 {
		t.Errorf("return messages = %d, want 1", n)
	}
}

func TestWRCCopyNoMessages(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	s1 := New(1, net, nil)
	s2 := New(2, net, nil)
	s3 := New(3, net, nil)

	a := ids.ClusterID{Site: 1, Seq: 1}
	b := ids.ClusterID{Site: 2, Seq: 1}
	c := ids.ClusterID{Site: 3, Seq: 1}
	s1.NewObject(a, true)
	refB := s2.NewObject(b, false)
	s3.NewObject(c, true)
	if err := s1.Give(a, refB); err != nil {
		t.Fatal(err)
	}

	// Copying a→c of the reference to b costs zero control messages.
	before := net.Stats().TotalSent()
	cp, err := s1.Copy(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Give(c, cp); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().TotalSent(); got != before {
		t.Errorf("copy cost %d messages, want 0", got-before)
	}

	// Both drops must come home before collection.
	if err := s1.Drop(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if s2.Removed() != 0 {
		t.Fatal("collected with outstanding weight (UNSAFE)")
	}
	if err := s3.Drop(c, b); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if s2.Removed() != 1 {
		t.Fatal("not collected after all weight returned")
	}
}

// TestWRCLeaksCycle is the point of Experiment E8's comparison row:
// weighted reference counting cannot collect a detached distributed cycle.
func TestWRCLeaksCycle(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	s1 := New(1, net, nil)
	s2 := New(2, net, nil)
	s3 := New(3, net, nil)

	root := ids.ClusterID{Site: 1, Seq: 1}
	a := ids.ClusterID{Site: 2, Seq: 1}
	b := ids.ClusterID{Site: 3, Seq: 1}
	s1.NewObject(root, true)
	refA := s2.NewObject(a, false)
	refB := s3.NewObject(b, false)

	// root → a, a → b, b → a (distributed cycle reachable from root).
	if err := s1.Give(root, refA); err != nil {
		t.Fatal(err)
	}
	if err := s2.Give(a, refB); err != nil {
		t.Fatal(err)
	}
	cpA, err := s1.Copy(root, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Give(b, cpA); err != nil {
		t.Fatal(err)
	}

	// Detach the cycle.
	if err := s1.Drop(root, a); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}

	// The cycle is garbage but WRC can never collect it: a's weight is
	// held by b and vice versa.
	if s1.Removed()+s2.Removed()+s3.Removed() != 0 {
		t.Fatal("WRC collected a cycle?!")
	}
}

func TestWRCWeightExhaustion(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	s1 := New(1, net, nil)
	a := ids.ClusterID{Site: 1, Seq: 1}
	b := ids.ClusterID{Site: 1, Seq: 2}
	s1.NewObject(a, true)
	refB := s1.NewObject(b, false)
	if err := s1.Give(a, refB); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if _, err := s1.Copy(a, b); err != nil {
			if i < 10 {
				t.Fatalf("weight exhausted after only %d copies", i)
			}
			break
		}
		if i > 1000 {
			t.Fatal("weight never exhausts")
		}
	}
}

// TestWRCUnroot: once all weight is home, the local-root mark alone
// decides collection.
func TestWRCUnroot(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	var collected []ids.ClusterID
	s1 := New(1, net, func(id ids.ClusterID) { collected = append(collected, id) })
	a := ids.ClusterID{Site: 1, Seq: 1}
	b := ids.ClusterID{Site: 1, Seq: 2}
	for _, o := range []struct {
		id     ids.ClusterID
		rooted bool
	}{{a, true}, {b, false}} {
		ref := s1.NewObject(o.id, o.rooted)
		// The minted reference was never given to anyone: return it.
		if err := s1.Give(o.id, ref); err != nil { // the object holds itself
			t.Fatal(err)
		}
		if err := s1.Drop(o.id, o.id); err != nil {
			t.Fatal(err)
		}
	}
	if len(collected) != 1 || collected[0] != b {
		t.Fatalf("collected %v, want only the unrooted %v", collected, b)
	}
}
