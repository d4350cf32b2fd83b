package causalgc_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"causalgc"
	"causalgc/monitor"
	"causalgc/persist"
)

// corruptSnapshot leaves a durable site-1 directory under dir whose
// one snapshot fails its checksum.
func corruptSnapshot(t *testing.T, dir string) {
	t.Helper()
	n, err := causalgc.Recover(1, causalgc.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewLocal(n.Root().Obj); err != nil {
		t.Fatal(err)
	}
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}
	buf, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(snaps[0], buf, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestConstructorPanicsMatchably: NewNode and NewCluster over a
// directory whose snapshot is corrupt panic with an error value that
// wraps the persistence error, so a recover() can match
// persist.ErrCorrupt.
func TestConstructorPanicsMatchably(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(dir string)
	}{
		{"NewNode", func(dir string) {
			corruptSnapshot(t, dir)
			causalgc.NewNode(1, causalgc.WithPersistence(dir))
		}},
		{"NewCluster", func(dir string) {
			corruptSnapshot(t, filepath.Join(dir, "site-1"))
			causalgc.NewCluster(2, causalgc.WithPersistence(dir))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				v := recover()
				if err, ok := v.(error); !ok || !errors.Is(err, persist.ErrCorrupt) {
					t.Fatalf("%s over a corrupt snapshot panicked with %#v, want an error wrapping persist.ErrCorrupt", c.name, v)
				}
			}()
			c.build(t.TempDir())
		})
	}
}

// TestDurableClusterFsyncCount pins the journal cost of one fixed
// program on a durable two-node cluster over the deterministic default
// transport: 64 remote creations each dropped at once, then Run and
// CollectAll. Every journaled event is one append and one fsync of its
// own — no timer batches them — so each node's counts are exact, and
// Syncs equals Appends.
func TestDurableClusterFsyncCount(t *testing.T) {
	mon := monitor.New(0)
	c := causalgc.NewCluster(2, causalgc.WithPersistence(t.TempDir()), causalgc.WithMonitor(mon))
	defer c.Close()
	n1 := c.Node(1)
	root := n1.Root().Obj
	for i := 0; i < 64; i++ {
		ref, err := n1.NewRemote(root, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := n1.DropRefs(root, ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.CollectAll(); err != nil {
		t.Fatal(err)
	}
	want := map[causalgc.SiteID][2]int{1: {258, 258}, 2: {130, 130}}
	for _, n := range c.Nodes() {
		ps := n.Monitor().Snapshot().Persist
		if ps == nil {
			t.Fatalf("node %v reports no persistence counters", n.ID())
		}
		t.Logf("node %v: %d appends, %d syncs", n.ID(), ps.Appends, ps.Syncs)
		if ps.Syncs != ps.Appends {
			t.Errorf("node %v: %d fsyncs for %d appends, want one per append", n.ID(), ps.Syncs, ps.Appends)
		}
		if w := want[n.ID()]; ps.Appends != w[0] || ps.Syncs != w[1] {
			t.Errorf("node %v: %d appends and %d fsyncs, pinned %d and %d", n.ID(), ps.Appends, ps.Syncs, w[0], w[1])
		}
	}
}
