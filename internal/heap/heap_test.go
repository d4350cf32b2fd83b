package heap

import (
	"testing"

	"causalgc/internal/ids"
)

// recorder captures hook invocations.
type recorder struct {
	ups   []edgeEvent
	downs []edgeEvent
}

type edgeEvent struct {
	holder, target ids.ClusterID
	first          bool
}

func (r *recorder) EdgeUp(h, t ids.ClusterID, first bool, _ ids.ClusterID, _ uint64) {
	r.ups = append(r.ups, edgeEvent{holder: h, target: t, first: first})
}

func (r *recorder) EdgeDown(h, t ids.ClusterID) {
	r.downs = append(r.downs, edgeEvent{holder: h, target: t})
}

var _ Hooks = (*recorder)(nil)

func newHeap(t *testing.T) (*Heap, *recorder) {
	t.Helper()
	rec := &recorder{}
	return New(1, rec), rec
}

func TestHeapRootSetup(t *testing.T) {
	h, _ := newHeap(t)
	if !h.RootCluster().IsRoot() {
		t.Error("root cluster must carry the actual-root flag")
	}
	if h.RootObject() == ids.NoObject {
		t.Error("root object must exist")
	}
	if h.NumObjects() != 1 {
		t.Errorf("NumObjects = %d, want 1", h.NumObjects())
	}
	if got := h.RootRef(); got.Obj != h.RootObject() || got.Cluster != h.RootCluster() {
		t.Errorf("RootRef = %v", got)
	}
}

func TestHeapNewObjectAndSlots(t *testing.T) {
	h, _ := newHeap(t)
	o := h.NewObject(h.NewCluster())
	if h.Object(o.ID()) != o {
		t.Fatal("Object lookup failed")
	}
	ref := Ref{Obj: o.ID(), Cluster: o.Cluster()}
	idx, err := h.AddRef(h.RootObject(), ref)
	if err != nil {
		t.Fatal(err)
	}
	root := h.Object(h.RootObject())
	slots := root.Slots()
	if len(slots) != 1 || slots[idx] != ref {
		t.Errorf("Slots = %v, want [%v]", slots, ref)
	}
	slots[0] = NilRef // must not alias
	if root.slots[idx] != ref {
		t.Error("Slots() must copy")
	}
}

func TestHeapEdgeAccounting(t *testing.T) {
	h, rec := newHeap(t)
	o := h.NewObject(h.NewCluster())
	ref := Ref{Obj: o.ID(), Cluster: o.Cluster()}
	rootCl := h.RootCluster()

	if _, err := h.AddRef(h.RootObject(), ref); err != nil {
		t.Fatal(err)
	}
	if got := h.edges[edge{rootCl, o.Cluster()}]; got != 1 {
		t.Errorf("edge count = %d, want 1", got)
	}
	if len(rec.ups) != 1 || !rec.ups[0].first {
		t.Fatalf("ups = %+v, want one first=true", rec.ups)
	}
	// Second slot: count 2, EdgeUp with first=false.
	if _, err := h.AddRef(h.RootObject(), ref); err != nil {
		t.Fatal(err)
	}
	if got := h.edges[edge{rootCl, o.Cluster()}]; got != 2 {
		t.Errorf("edge count = %d, want 2", got)
	}
	if len(rec.ups) != 2 || rec.ups[1].first {
		t.Fatalf("ups = %+v, want second first=false", rec.ups)
	}
	// Drop both: EdgeDown fires once, at the last drop.
	if err := h.DropRefs(h.RootObject(), o.ID()); err != nil {
		t.Fatal(err)
	}
	if got := h.edges[edge{rootCl, o.Cluster()}]; got != 0 {
		t.Errorf("edge count = %d, want 0", got)
	}
	if len(rec.downs) != 1 {
		t.Fatalf("downs = %+v, want exactly one", rec.downs)
	}
}

func TestHeapIntraClusterRefsNotEdges(t *testing.T) {
	h, rec := newHeap(t)
	cl := h.NewCluster()
	a := h.NewObject(cl)
	b := h.NewObject(cl)
	if _, err := h.AddRef(a.ID(), Ref{Obj: b.ID(), Cluster: cl}); err != nil {
		t.Fatal(err)
	}
	if len(rec.ups) != 0 {
		t.Errorf("intra-cluster reference fired EdgeUp: %+v", rec.ups)
	}
	if got := h.edges[edge{cl, cl}]; got != 0 {
		t.Errorf("self-edge count = %d", got)
	}
}

func TestHeapLocalInterClusterMarksEntry(t *testing.T) {
	h, _ := newHeap(t)
	cl := h.NewCluster()
	o := h.NewObject(cl)
	// Referencing o from the root cluster makes o a global root of cl.
	if _, err := h.AddRef(h.RootObject(), Ref{Obj: o.ID(), Cluster: cl}); err != nil {
		t.Fatal(err)
	}
	entries := h.Entries(cl)
	if len(entries) != 1 || entries[0] != o.ID() {
		t.Errorf("Entries = %v, want [%v]", entries, o.ID())
	}
}

func TestHeapSetSlotGrowsAndSwaps(t *testing.T) {
	h, rec := newHeap(t)
	a := h.NewObject(h.NewCluster())
	b := h.NewObject(h.NewCluster())
	refA := Ref{Obj: a.ID(), Cluster: a.Cluster()}
	refB := Ref{Obj: b.ID(), Cluster: b.Cluster()}

	if err := h.SetSlot(h.RootObject(), 3, refA); err != nil {
		t.Fatal(err)
	}
	root := h.Object(h.RootObject())
	if len(root.slots) != 4 {
		t.Errorf("slots = %d, want 4 (grown)", len(root.slots))
	}
	// Overwrite: drops refA's edge, creates refB's.
	if err := h.SetSlot(h.RootObject(), 3, refB); err != nil {
		t.Fatal(err)
	}
	if h.edges[edge{h.RootCluster(), a.Cluster()}] != 0 {
		t.Error("old edge not dropped")
	}
	if h.edges[edge{h.RootCluster(), b.Cluster()}] != 1 {
		t.Error("new edge not created")
	}
	if len(rec.downs) != 1 {
		t.Errorf("downs = %+v", rec.downs)
	}
	if err := h.ClearSlot(h.RootObject(), 3); err != nil {
		t.Fatal(err)
	}
	if h.edges[edge{h.RootCluster(), b.Cluster()}] != 0 {
		t.Error("ClearSlot did not drop the edge")
	}
	if err := h.SetSlot(h.RootObject(), -1, refA); err == nil {
		t.Error("negative index must error")
	}
}

func TestHeapErrors(t *testing.T) {
	h, _ := newHeap(t)
	ghost := ids.ObjectID{Site: 1, Seq: 999}
	if _, err := h.AddRef(ghost, h.RootRef()); err == nil {
		t.Error("AddRef unknown holder must error")
	}
	if _, err := h.AddRef(h.RootObject(), NilRef); err == nil {
		t.Error("AddRef nil ref must error")
	}
	if err := h.SetSlot(ghost, 0, NilRef); err == nil {
		t.Error("SetSlot unknown holder must error")
	}
	if err := h.DropRefs(ghost, ghost); err == nil {
		t.Error("DropRefs unknown holder must error")
	}
	if err := h.MarkEntry(ghost); err == nil {
		t.Error("MarkEntry unknown object must error")
	}
	foreign := ids.ClusterID{Site: 9, Seq: 1}
	if _, err := h.NewObjectAt(ids.ObjectID{Site: 9, Seq: 1}, foreign); err == nil {
		t.Error("NewObjectAt foreign identity must error")
	}
	if err := h.RemoveCluster(foreign); err == nil {
		t.Error("RemoveCluster unknown cluster must error")
	}
	if err := h.RemoveCluster(h.RootCluster()); err == nil {
		t.Error("RemoveCluster on the root cluster must error")
	}
}

func TestHeapNewObjectAtIdempotence(t *testing.T) {
	h, _ := newHeap(t)
	id := ids.ObjectID{Site: 1, Seq: 500}
	cl := ids.ClusterID{Site: 1, Seq: 500}
	if _, err := h.NewObjectAt(id, cl); err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewObjectAt(id, cl); err == nil {
		t.Error("duplicate NewObjectAt must error")
	}
}

func TestCollectSweepsUnreachable(t *testing.T) {
	h, rec := newHeap(t)
	// root → a → b, plus orphan c.
	a := h.NewObject(h.NewCluster())
	b := h.NewObject(h.NewCluster())
	c := h.NewObject(h.NewCluster())
	refA := Ref{Obj: a.ID(), Cluster: a.Cluster()}
	refB := Ref{Obj: b.ID(), Cluster: b.Cluster()}
	if _, err := h.AddRef(h.RootObject(), refA); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddRef(a.ID(), refB); err != nil {
		t.Fatal(err)
	}

	stats := h.Collect()
	if stats.Swept != 1 {
		t.Errorf("Swept = %d, want 1 (orphan c)", stats.Swept)
	}
	if h.Object(c.ID()) != nil {
		t.Error("orphan survived")
	}
	if h.Object(a.ID()) == nil || h.Object(b.ID()) == nil {
		t.Error("reachable object swept")
	}

	// Drop root→a. a and b were marked as entries of their clusters by
	// the inter-cluster references, so the heap alone keeps them: entries
	// are conservative roots until GGD removes the cluster (§2.1).
	if err := h.DropRefs(h.RootObject(), a.ID()); err != nil {
		t.Fatal(err)
	}
	if stats := h.Collect(); stats.Swept != 0 {
		t.Errorf("entries swept without GGD verdict: %+v", stats)
	}

	// GGD removes a's cluster: the sweep reclaims a. The engine already
	// shipped a's edge destructions at removal time, so the sweep
	// suppresses duplicate EdgeDown notifications for the removed
	// cluster's slots.
	if err := h.RemoveCluster(a.Cluster()); err != nil {
		t.Fatal(err)
	}
	rec.downs = nil
	if stats := h.Collect(); stats.Swept != 1 {
		t.Errorf("Swept = %d, want 1 (a)", stats.Swept)
	}
	if len(rec.downs) != 0 {
		t.Errorf("sweep of a removed cluster emitted EdgeDowns: %+v", rec.downs)
	}
	if err := h.RemoveCluster(b.Cluster()); err != nil {
		t.Fatal(err)
	}
	if stats := h.Collect(); stats.Swept != 1 {
		t.Errorf("Swept = %d, want 1 (b)", stats.Swept)
	}
}

func TestCollectEntriesAreRoots(t *testing.T) {
	h, _ := newHeap(t)
	cl := h.NewCluster()
	o := h.NewObject(cl)
	if err := h.MarkEntry(o.ID()); err != nil {
		t.Fatal(err)
	}
	// No local path to o, but it is an entry (remotely referenced).
	if stats := h.Collect(); stats.Swept != 0 {
		t.Errorf("entry object swept: %+v", stats)
	}

	// GGD removes the cluster: the entry table is cleared and the next
	// collection reclaims the object.
	if err := h.RemoveCluster(cl); err != nil {
		t.Fatal(err)
	}
	if !h.ClusterRemoved(cl) {
		t.Error("ClusterRemoved = false")
	}
	if stats := h.Collect(); stats.Swept != 1 {
		t.Errorf("Swept = %d, want 1 after removal", stats.Swept)
	}
	if h.Object(o.ID()) != nil {
		t.Error("object survived cluster removal + collect")
	}
}

func TestRemoveClusterSuppressesEdgeEvents(t *testing.T) {
	h, rec := newHeap(t)
	cl := h.NewCluster()
	o := h.NewObject(cl)
	if err := h.MarkEntry(o.ID()); err != nil {
		t.Fatal(err)
	}
	remote := Ref{Obj: ids.ObjectID{Site: 2, Seq: 1}, Cluster: ids.ClusterID{Site: 2, Seq: 1}}
	if _, err := h.AddRef(o.ID(), remote); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveCluster(cl); err != nil {
		t.Fatal(err)
	}
	// Idempotent while the shell exists.
	if err := h.RemoveCluster(cl); err != nil {
		t.Errorf("second RemoveCluster: %v", err)
	}
	rec.downs = nil
	h.Collect()
	// The engine already destroyed the removed cluster's edges; the sweep
	// must not emit duplicate EdgeDowns.
	if len(rec.downs) != 0 {
		t.Errorf("sweep of removed cluster emitted EdgeDowns: %+v", rec.downs)
	}
}

// TestLocallyReachable checks that the collector keeps exactly what the
// root reaches when no entry is marked.
func TestLocallyReachable(t *testing.T) {
	h, _ := newHeap(t)
	a := h.NewObject(h.NewCluster())
	b := h.NewObject(h.NewCluster())
	if _, err := h.AddRef(h.RootObject(), Ref{Obj: a.ID(), Cluster: a.Cluster()}); err != nil {
		t.Fatal(err)
	}
	h.Collect()
	if h.Object(a.ID()) == nil {
		t.Error("attached object swept")
	}
	if h.Object(b.ID()) != nil {
		t.Error("unattached object survived the collection")
	}
}

func TestRefString(t *testing.T) {
	if NilRef.String() != "nil" {
		t.Errorf("NilRef.String() = %q", NilRef.String())
	}
	r := Ref{Obj: ids.ObjectID{Site: 2, Seq: 5}, Cluster: ids.ClusterID{Site: 2, Seq: 3}}
	if got, want := r.String(), "s2/o5@s2/c3"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestObjectsSnapshotSorted(t *testing.T) {
	h, _ := newHeap(t)
	h.NewObject(h.NewCluster())
	h.NewObject(h.NewCluster())
	objs := h.Objects()
	if len(objs) != 3 {
		t.Fatalf("Objects = %d, want 3", len(objs))
	}
	for i := 1; i < len(objs); i++ {
		if objs[i].ID().Less(objs[i-1].ID()) {
			t.Fatal("Objects not sorted")
		}
	}
	cls := h.Clusters()
	if len(cls) != 3 {
		t.Fatalf("Clusters = %v", cls)
	}
}
