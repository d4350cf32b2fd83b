package tcp_test

import (
	"testing"
	"time"

	"causalgc"
	"causalgc/internal/wire"
)

// TestEarlyOverflowLosesVolatileCreates pins what an early-buffer
// overflow does to mutator frames, a bounded schedule checked at its
// end. Site 1 commits 300 singleton NewRemote creates to site 2 before
// site 2 registers on its Network. The receiver buffers the first 256
// frames (maxEarly) and counts the other 44 dropped. A volatile sender
// sends its mutator frames untracked, so those 44 objects never appear,
// not even after a refresh round, and site 1's root holds 44 dangling
// references. A durable sender retains every frame until it is acked,
// so one refresh round re-sends the lost creates and the oracle is
// clean. Both cells are asserted: the test fails when volatile sites
// stop losing the frames, and also when the schedule stops overflowing.
func TestEarlyOverflowLosesVolatileCreates(t *testing.T) {
	const creates, buffered = 300, 256
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "volatile", true: "durable"}[durable], func(t *testing.T) {
			netA, netB := pair(t)
			opts := []causalgc.Option{causalgc.WithTransport(netA)}
			if durable {
				opts = append(opts, causalgc.WithPersistence(t.TempDir()))
			}
			n1 := causalgc.NewNode(1, opts...)
			defer n1.Close()
			refs := make([]causalgc.Ref, creates)
			for i := range refs {
				var err error
				if refs[i], err = n1.NewRemote(n1.Root().Obj, 2); err != nil {
					t.Fatal(err)
				}
			}
			settle(t, nil, 10*time.Second, func() bool {
				_, _, dropped, _, _ := netB.Stats().Kind(wire.KindCreate)
				return dropped == creates-buffered
			})

			n2 := causalgc.NewNode(2, causalgc.WithTransport(netB))
			defer n2.Close()
			if err := n1.Refresh(); err != nil {
				t.Fatal(err)
			}
			arrived := buffered
			if durable {
				arrived = creates
			}
			settle(t, nil, 10*time.Second, func() bool { return n2.NumObjects() == 1+arrived })
			netA.Drain(5 * time.Second)
			netB.Drain(5 * time.Second)
			for i, r := range refs {
				if n2.HasObject(r.Obj) != (i < arrived) {
					t.Errorf("create %d: on site 2 %v, want %v", i, n2.HasObject(r.Obj), i < arrived)
				}
			}
			if rep := causalgc.Check(n1, n2); len(rep.Dangling) != creates-arrived || len(rep.Garbage) != 0 {
				t.Errorf("oracle: %v, want %d dangling and no garbage", rep, creates-arrived)
			}
		})
	}
}
