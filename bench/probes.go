package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"causalgc"
	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/site"
	"causalgc/internal/vclock"
	"causalgc/internal/wire"
	"causalgc/monitor"
	"causalgc/persist"
	"causalgc/transport"
	"causalgc/transport/tcp"
)

// The layer probes time each layer's exported functions directly, with
// fixed iteration counts and inputs shaped like the workloads. They are
// what the per-layer list calls ns/op numbers; the traced counts
// (traced.go) say how often a workload pays each of them.

// sample is one probe's cost per operation.
type sample struct {
	ns     float64
	bytes  float64 // heap bytes allocated per operation
	allocs float64 // heap allocations per operation
}

// probeRounds is how many times each probe repeats its timed loop; the
// median round is reported.
const probeRounds = 3

// timeOps runs setup (untimed) and then body, which performs ops
// operations, probeRounds times.
func timeOps(ops int, setup func(), body func()) sample {
	rounds := make([]sample, probeRounds)
	for i := range rounds {
		if setup != nil {
			setup()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		body()
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		n := float64(ops)
		rounds[i] = sample{float64(dt) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n, float64(m1.Mallocs-m0.Mallocs) / n}
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].ns < rounds[j].ns })
	return rounds[probeRounds/2]
}

// probeSet collects probe results as metrics.
type probeSet struct {
	metrics map[string]float64
	detail  map[string]sample // every timed probe, for the -layers listing
	tmp     string
}

func (p *probeSet) put(name string, s sample) {
	p.metrics[name] = s.ns
	p.detail[name] = s
}

// runProbes runs every layer probe and the baseline rows. tmp is a
// scratch directory for the persistence probes.
func runProbes(tmp string) (*probeSet, error) {
	p := &probeSet{metrics: map[string]float64{}, detail: map[string]sample{}, tmp: tmp}
	for _, step := range []func() error{
		p.heap, p.vclock, p.core, p.wire, p.persist, p.site, p.transport, p.tcp, p.monitor, p.baselines,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// print lists every probe metric and, for the timed ones, the heap
// bytes and allocations per operation beside the time.
func (p *probeSet) print(w io.Writer) {
	fmt.Fprintf(w, "== layer probes%44s %12s %12s\n", "", "B/op", "allocs/op")
	for _, def := range perLayer {
		v, ok := p.metrics[def.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-40s %16.4f %-10s", def.name, v, def.unit)
		if s, ok := p.detail[def.name]; ok {
			fmt.Fprintf(w, " %12.1f %12.2f", s.bytes, s.allocs)
		}
		fmt.Fprintln(w)
	}
}

// --- heap ---------------------------------------------------------------

// chainedHeap builds a heap of n objects, each its own cluster, as
// chains of 16 under the root: the shape the workloads preload.
func chainedHeap(n int) *heap.Heap {
	h := heap.New(1, heap.NopHooks{})
	holder := h.RootObject()
	for i := 0; i < n; i++ {
		if i%16 == 0 {
			holder = h.RootObject()
		}
		cl := h.NewCluster()
		o := h.NewObject(cl)
		if _, err := h.AddRef(holder, heap.Ref{Obj: o.ID(), Cluster: cl}); err != nil {
			panic(err) // the holder was just created
		}
		holder = o.ID()
	}
	return h
}

func (p *probeSet) heap() error {
	const live = 4000
	h := chainedHeap(live)
	p.put("heap.collect_ns_per_obj", timeOps(20*live, nil, func() {
		for i := 0; i < 20; i++ {
			h.Collect()
		}
	}))
	p.put("heap.export_ns_per_obj", timeOps(20*live, nil, func() {
		for i := 0; i < 20; i++ {
			h.Export()
		}
	}))

	// DropRefs scans every slot of the holder: a fresh set of holders per
	// round, each dropping the reference in its last slot.
	for _, slots := range []int{1, 256, 4096} {
		holders := 2000
		if slots == 4096 {
			holders = 64
		}
		var dh *heap.Heap
		var hs []ids.ObjectID
		var target heap.Ref
		setup := func() {
			dh = heap.New(1, heap.NopHooks{})
			tcl := dh.NewCluster()
			target = heap.Ref{Obj: dh.NewObject(tcl).ID(), Cluster: tcl}
			filler := heap.Ref{Obj: dh.RootObject(), Cluster: dh.RootCluster()}
			hs = hs[:0]
			for i := 0; i < holders; i++ {
				o := dh.NewObject(dh.NewCluster()).ID()
				for s := 0; s < slots-1; s++ {
					_, _ = dh.AddRef(o, filler) // the holder was just created
				}
				_, _ = dh.AddRef(o, target)
				hs = append(hs, o)
			}
		}
		p.put(fmt.Sprintf("heap.dropref_ns_%d", slots), timeOps(holders, setup, func() {
			for _, o := range hs {
				_ = dh.DropRefs(o, target.Obj) // the holder exists
			}
		}))
	}

	const n = 5000
	var ah *heap.Heap
	var hs []ids.ObjectID
	var target heap.Ref
	setup := func() {
		ah = heap.New(1, heap.NopHooks{})
		tcl := ah.NewCluster()
		target = heap.Ref{Obj: ah.NewObject(tcl).ID(), Cluster: tcl}
		hs = hs[:0]
		for i := 0; i < n; i++ {
			hs = append(hs, ah.NewObject(ah.NewCluster()).ID())
		}
	}
	p.put("heap.addref_ns", timeOps(n, setup, func() {
		for _, o := range hs {
			_, _ = ah.AddRef(o, target) // the holder exists
		}
	}))
	p.put("heap.newobject_ns", timeOps(n, func() { ah = heap.New(1, heap.NopHooks{}) }, func() {
		for i := 0; i < n; i++ {
			ah.NewObject(ah.NewCluster())
		}
	}))
	return nil
}

// --- vclock -------------------------------------------------------------

// ringLog runs one ring-8 episode on a deterministic cluster and returns
// the log with which the first ring element certified itself garbage —
// the largest closure the cycle-reclaim workload evaluates — and its
// clock.
func ringLog() (*vclock.Log, uint64, error) {
	var log *vclock.Log
	var clock uint64
	c := causalgc.NewCluster(9, causalgc.WithEngineOptions(causalgc.EngineOptions{
		RemoveObserver: func(_ causalgc.ClusterID, l *vclock.Log, ck uint64) {
			if log == nil {
				log, clock = l.Clone(), ck
			}
		},
	}))
	defer c.Close()
	ring, err := causalgc.BuildRing(c, 8)
	if err != nil {
		return nil, 0, err
	}
	if err := ring.DetachRing(); err != nil {
		return nil, 0, err
	}
	if err := c.Settle(); err != nil {
		return nil, 0, err
	}
	if log == nil {
		return nil, 0, fmt.Errorf("ring-8 episode removed no cluster")
	}
	return log, clock, nil
}

func (p *probeSet) vclock() error {
	const width, n = 16, 20000
	a, b := vclock.NewVector(), vclock.NewVector()
	for i := 0; i < width; i++ {
		cl := ids.ClusterID{Site: ids.SiteID(i + 1), Seq: 1}
		a.Set(cl, vclock.At(uint64(i+1)))
		b.Set(cl, vclock.At(uint64(i+2)))
	}
	p.put("vclock.mergeall_ns", timeOps(n, nil, func() {
		for i := 0; i < n; i++ {
			a.MergeAll(b)
		}
	}))
	var sink vclock.Vector
	p.put("vclock.clone_ns", timeOps(n, nil, func() {
		for i := 0; i < n; i++ {
			sink = a.Clone()
		}
	}))
	_ = sink

	log, clock, err := ringLog()
	if err != nil {
		return fmt.Errorf("vclock probe: %w", err)
	}
	cl := timeOps(n, nil, func() {
		for i := 0; i < n; i++ {
			log.Closure(clock)
		}
	})
	p.put("vclock.closure_ns", cl)
	p.metrics["vclock.closure_allocs"] = cl.allocs
	// Merge a relayed copy of another ring member's row back into the
	// log: the per-row step of HandlePropagate.
	var peer ids.ClusterID
	for _, q := range log.Processes() {
		if q != log.Owner() && log.PeekVRow(q) != nil {
			peer = q
			break
		}
	}
	if !peer.Valid() {
		return fmt.Errorf("vclock probe: ring log has no peer row")
	}
	row := log.PeekVRow(peer)
	auth, cols := row.Auth.Clone(), row.HintCols.Sorted()
	p.put("vclock.mergevrow_ns", timeOps(n, nil, func() {
		for i := 0; i < n; i++ {
			log.MergeVRow(peer, auth, cols, false, true)
		}
	}))
	return nil
}

// --- core ---------------------------------------------------------------

// engineMsg is one control message captured from an engine's Sender.
type engineMsg struct {
	from, to ids.ClusterID
	destroy  *core.DestroyMsg
	assert   *core.AssertMsg
	prop     *core.Propagation
	seq      uint64
	legacy   bool
}

// engineWorld wires bare engines (one per site) to a capturing Sender:
// the GGD layer alone, without heap, journal or transport.
type engineWorld struct {
	engines map[ids.SiteID]*core.Engine
	queue   []engineMsg
	nextSeq uint64
	discard bool // drop captured messages instead of queueing them
	// Accumulated over pump: time inside HandlePropagate+Drain and the
	// number of propagations handled.
	propNs   int64
	propMsgs int
}

type engineSender struct{ w *engineWorld }

func (s engineSender) seq(seq uint64) uint64 {
	if seq == 0 {
		s.w.nextSeq++
		seq = s.w.nextSeq
	}
	return seq
}

func (s engineSender) push(m engineMsg) {
	if !s.w.discard {
		s.w.queue = append(s.w.queue, m)
	}
}

func (s engineSender) SendDestroy(from, to ids.ClusterID, m core.DestroyMsg, seq uint64) uint64 {
	seq = s.seq(seq)
	s.push(engineMsg{from: from, to: to, destroy: &m, seq: seq})
	return seq
}

func (s engineSender) SendLegacy(from, to ids.ClusterID, m core.DestroyMsg, seq uint64) uint64 {
	seq = s.seq(seq)
	s.push(engineMsg{from: from, to: to, destroy: &m, seq: seq, legacy: true})
	return seq
}

func (s engineSender) SendAssert(from, to ids.ClusterID, m core.AssertMsg, seq uint64) uint64 {
	seq = s.seq(seq)
	s.push(engineMsg{from: from, to: to, assert: &m, seq: seq})
	return seq
}

func (s engineSender) SendPropagate(from, to ids.ClusterID, m core.Propagation) {
	s.push(engineMsg{from: from, to: to, prop: &m})
}

func (engineSender) SettleFrame(ids.SiteID, core.Stream, uint64) {}

func newEngineWorld(sites int) *engineWorld {
	w := &engineWorld{engines: make(map[ids.SiteID]*core.Engine)}
	for i := 1; i <= sites; i++ {
		id := ids.SiteID(i)
		w.engines[id] = core.New(id, engineSender{w}, nil, core.Options{})
	}
	return w
}

// pump delivers captured messages until none is left, the way the site
// runtime does: hand the frame to the engine, then drain it.
func (w *engineWorld) pump() {
	for len(w.queue) > 0 {
		m := w.queue[0]
		w.queue = w.queue[1:]
		e := w.engines[m.to.Site]
		switch {
		case m.destroy != nil:
			e.HandleDestroyFrame(m.to, m.from, *m.destroy, m.seq, m.legacy)
			e.Drain()
		case m.assert != nil:
			e.HandleAssertFrame(m.to, m.from, *m.assert, m.seq)
			e.Drain()
		case m.prop != nil:
			t0 := time.Now()
			e.HandlePropagate(m.to, m.from, *m.prop)
			e.Drain()
			w.propNs += int64(time.Since(t0))
			w.propMsgs++
		}
	}
}

// ring builds a k-element ring (element i on site i+2, entered from the
// root cluster of site 1) with the engine calls the site runtime makes
// for NewRemote, third-party SendRef and DropRefs, and returns the root
// and the elements.
func (w *engineWorld) ring(k int, gen uint64) (ids.ClusterID, []ids.ClusterID) {
	root := ids.ClusterID{Site: 1, Seq: 1, Root: true}
	e1 := w.engines[1]
	e1.Register(root)
	elems := make([]ids.ClusterID, k)
	for i := range elems {
		elems[i] = ids.ClusterID{Site: ids.SiteID(i + 2), Seq: gen}
		e1.EdgeUp(root, elems[i], true, ids.NoCluster, ids.CreationSeq)
		w.engines[elems[i].Site].HandleCreate(elems[i], root, e1.RemoteCreationStamp(root))
	}
	for i, el := range elems {
		next := elems[(i+1)%k]
		seq := e1.SentRef(root, next, el)
		e1.Drain()
		he := w.engines[el.Site]
		he.EdgeUp(el, next, true, root, seq)
		he.Drain()
	}
	w.pump()
	for _, el := range elems[1:] {
		e1.EdgeDown(root, el)
		e1.Drain()
	}
	w.pump()
	return root, elems
}

func (p *probeSet) core() error {
	// A ring-8 episode on bare engines: time per propagation handled.
	const episodes = 200
	w := newEngineWorld(9)
	for ep := 1; ep <= episodes; ep++ {
		root, elems := w.ring(8, uint64(ep))
		w.engines[1].EdgeDown(root, elems[0])
		w.engines[1].Drain()
		w.pump()
		for _, el := range elems {
			if !w.engines[el.Site].Removed(el) {
				return fmt.Errorf("core probe: episode %d left ring element %v undetected", ep, el)
			}
		}
	}
	p.metrics["core.propagate_ns_per_msg"] = float64(w.propNs) / float64(max(w.propMsgs, 1))

	// EdgeUp and EdgeDown of a root's edges to remote clusters (a
	// creation, so no assert is owed; the destroy bundle is captured).
	const n = 5000
	var ew *engineWorld
	root := ids.ClusterID{Site: 1, Seq: 1, Root: true}
	target := func(i int) ids.ClusterID { return ids.ClusterID{Site: 2, Seq: uint64(i + 1)} }
	fresh := func() {
		ew = newEngineWorld(1)
		ew.discard = true
		ew.engines[1].Register(root)
	}
	p.put("core.edgeup_ns", timeOps(n, fresh, func() {
		e := ew.engines[1]
		for i := 0; i < n; i++ {
			e.EdgeUp(root, target(i), true, ids.NoCluster, ids.CreationSeq)
		}
	}))
	withEdges := func(rows int) func() {
		return func() {
			fresh()
			for i := 0; i < rows; i++ {
				ew.engines[1].EdgeUp(root, target(i), true, ids.NoCluster, ids.CreationSeq)
			}
		}
	}
	p.put("core.edgedown_ns", timeOps(n, withEdges(n), func() {
		e := ew.engines[1]
		for i := 0; i < n; i++ {
			e.EdgeDown(root, target(i))
		}
		e.Drain()
	}))

	// AckDestroys scans the tracked destroyed-edge table, which only ever
	// grows: one call at 1k and at 100k rows (watermark 0 retires none,
	// so every call scans the same table).
	for _, rows := range []int{1000, 100000} {
		withEdges(rows)()
		e := ew.engines[1]
		for i := 0; i < rows; i++ {
			e.EdgeDown(root, target(i))
		}
		e.Drain()
		calls := 2000
		if rows > 1000 {
			calls = 20
		}
		name := "core.ackdestroys_ns_1k"
		if rows > 1000 {
			name = "core.ackdestroys_ns_100k"
		}
		p.put(name, timeOps(calls, nil, func() {
			for i := 0; i < calls; i++ {
				e.AckDestroys(2, 0)
			}
		}))
	}

	// Refresh of a site hosting 256 live processes, each held by a
	// remote root.
	const procs = 256
	rw := newEngineWorld(2)
	rw.engines[1].Register(root)
	for i := 0; i < procs; i++ {
		rw.engines[1].EdgeUp(root, target(i), true, ids.NoCluster, ids.CreationSeq)
		rw.engines[2].HandleCreate(target(i), root, rw.engines[1].RemoteCreationStamp(root))
	}
	rw.pump()
	rw.discard = true
	p.put("core.refresh_ns_per_process", timeOps(20*procs, nil, func() {
		for i := 0; i < 20; i++ {
			rw.engines[2].Refresh()
		}
	}))
	return nil
}

// --- wire ---------------------------------------------------------------

func (p *probeSet) wireRecord(name string, rec *wire.WALRecord) error {
	const n = 2000
	data, err := wire.EncodeRecord(rec)
	if err != nil {
		return err
	}
	enc := timeOps(n, nil, func() {
		for i := 0; i < n; i++ {
			_, _ = wire.EncodeRecord(rec) // encoded without error above
		}
	})
	dec := timeOps(n, nil, func() {
		for i := 0; i < n; i++ {
			_, _ = wire.DecodeRecord(data) // checked below
		}
	})
	if _, err := wire.DecodeRecord(data); err != nil {
		return err
	}
	p.put("wire.encode_"+name+"_ns", enc)
	p.put("wire.decode_"+name+"_ns", dec)
	p.metrics["wire."+name+"_bytes"] = float64(len(data))
	p.metrics["wire.encode_"+name+"_allocs"] = enc.allocs
	p.metrics["wire.decode_"+name+"_allocs"] = dec.allocs
	return nil
}

func (p *probeSet) wire() error {
	ref := func(site ids.SiteID, seq uint64) heap.Ref {
		return heap.Ref{Obj: ids.ObjectID{Site: site, Seq: seq}, Cluster: ids.ClusterID{Site: site, Seq: seq}}
	}
	op := &wire.WALRecord{Op: &wire.OpRecord{
		Kind: wire.OpSendRef, Holder: ids.ObjectID{Site: 1, Seq: 7}, To: ref(2, 3), Target: ref(3, 9),
	}}
	// The inmem-batch commit: 8 chains of 4 creates, 32 drops.
	batch := &wire.BatchRecord{}
	for c := 0; c < 8; c++ {
		base := len(batch.Ops)
		batch.Ops = append(batch.Ops,
			wire.BatchOp{Op: wire.OpRecord{Kind: wire.OpNewLocal, Holder: ids.ObjectID{Site: 1, Seq: 1}}},
			wire.BatchOp{Op: wire.OpRecord{Kind: wire.OpNewLocal}, HolderFrom: base + 1},
			wire.BatchOp{Op: wire.OpRecord{Kind: wire.OpNewLocal}, HolderFrom: base + 2},
			wire.BatchOp{Op: wire.OpRecord{Kind: wire.OpNewRemote, Site: 2}, HolderFrom: base + 3},
		)
	}
	for i := 0; i < 32; i++ {
		batch.Ops = append(batch.Ops, wire.BatchOp{Op: wire.OpRecord{
			Kind: wire.OpDropRefs, Holder: ids.ObjectID{Site: 1, Seq: uint64(100 + i)}, Target: ref(1, uint64(200+i)),
		}})
	}
	deliver := &wire.WALRecord{Deliver: &wire.DeliverRecord{From: 2, Payload: wire.Destroy{
		From: ids.ClusterID{Site: 2, Seq: 5}, To: ids.ClusterID{Site: 1, Seq: 9}, Seq: 17,
		M: core.DestroyMsg{Auth: vclock.Vector{
			{Site: 2, Seq: 5}: vclock.Eps(4), {Site: 1, Seq: 1, Root: true}: vclock.At(12),
		}},
	}}}
	for _, r := range []struct {
		name string
		rec  *wire.WALRecord
	}{{"op", op}, {"batch64", &wire.WALRecord{Batch: batch}}, {"deliver", deliver}} {
		if err := p.wireRecord(r.name, r.rec); err != nil {
			return fmt.Errorf("wire probe %s: %w", r.name, err)
		}
	}

	// A snapshot of a site with 500 live objects: checkpoint a durable
	// site, then read the image back from its store.
	const live = 500
	dir, err := os.MkdirTemp(p.tmp, "snap-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	popts := site.PersistOptions{SnapshotEvery: 1 << 30, Store: persist.Options{NoSync: true}}
	j, err := site.OpenPersist(dir, popts)
	if err != nil {
		return err
	}
	rt, err := site.Recover(1, newSink(), site.DefaultOptions(), j)
	if err != nil {
		j.Close()
		return err
	}
	holder := rt.Root().Obj
	for i := 0; i < live; i++ {
		if i%16 == 0 {
			holder = rt.Root().Obj
		}
		r, err := rt.NewLocal(holder)
		if err != nil {
			j.Close()
			return err
		}
		holder = r.Obj
	}
	if err := rt.Checkpoint(); err != nil {
		j.Close()
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	st, err := persist.Open(dir, persist.Options{NoSync: true})
	if err != nil {
		return err
	}
	data := st.Snapshot()
	st.Close()
	img, err := wire.DecodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("wire probe: snapshot: %w", err)
	}
	const n = 20
	enc := timeOps(n*live, nil, func() {
		for i := 0; i < n; i++ {
			_, _ = wire.EncodeSnapshot(img) // img came from a valid snapshot
		}
	})
	dec := timeOps(n*live, nil, func() {
		for i := 0; i < n; i++ {
			_, _ = wire.DecodeSnapshot(data) // decoded without error above
		}
	})
	p.put("wire.encode_snapshot_ns_per_obj", enc)
	p.put("wire.decode_snapshot_ns_per_obj", dec)
	p.metrics["wire.snapshot_bytes_per_obj"] = float64(len(data)) / live
	p.metrics["wire.encode_snapshot_allocs_per_obj"] = enc.allocs
	p.metrics["wire.decode_snapshot_allocs_per_obj"] = dec.allocs
	return nil
}

// --- persist ------------------------------------------------------------

func (p *probeSet) persist() error {
	payload := make([]byte, 128) // about one encoded singleton op record
	for _, mode := range []struct {
		name string
		opts persist.Options
		n    int
	}{
		{"persist.append_nosync_ns", persist.Options{NoSync: true}, 20000},
		{"persist.append_fsync_ns", persist.Options{}, 300},
		{"persist.append_group1ms_ns", persist.Options{GroupCommit: time.Millisecond}, 5000},
	} {
		dir, err := os.MkdirTemp(p.tmp, "wal-*")
		if err != nil {
			return err
		}
		st, err := persist.Open(dir, mode.opts)
		if err != nil {
			return err
		}
		var appendErr error
		s := timeOps(mode.n, nil, func() {
			for i := 0; i < mode.n; i++ {
				if err := st.Append(payload); err != nil {
					appendErr = err
				}
			}
		})
		st.Close()
		os.RemoveAll(dir)
		if appendErr != nil {
			return fmt.Errorf("%s: %w", mode.name, appendErr)
		}
		p.put(mode.name, s)
	}

	dir, err := os.MkdirTemp(p.tmp, "store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return err
	}
	snapshot := make([]byte, 120<<10) // the durable-tcp snapshot is about this size
	var snapErr error
	snap := timeOps(5, nil, func() {
		for i := 0; i < 5; i++ {
			if err := st.WriteSnapshot(snapshot); err != nil {
				snapErr = err
			}
		}
	})
	if snapErr != nil {
		st.Close()
		return snapErr
	}
	p.metrics["persist.snapshot_write_ms"] = snap.ns / 1e6
	st.Close()

	// Open (recovery scan) of a 10 000-record log.
	const records = 10000
	wdir, err := os.MkdirTemp(p.tmp, "open-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(wdir)
	ws, err := persist.Open(wdir, persist.Options{NoSync: true})
	if err != nil {
		return err
	}
	for i := 0; i < records; i++ {
		if err := ws.Append(payload); err != nil {
			ws.Close()
			return err
		}
	}
	if err := ws.Close(); err != nil {
		return err
	}
	var openErr error
	open := timeOps(1, nil, func() {
		s, err := persist.Open(wdir, persist.Options{NoSync: true})
		if err != nil {
			openErr = err
			return
		}
		s.Close()
	})
	if openErr != nil {
		return openErr
	}
	p.metrics["persist.open_ms_per_10k"] = open.ns / 1e6
	return nil
}

// --- site ---------------------------------------------------------------

// sink is a network that registers handlers and swallows every send: a
// site over it pays for everything but the transport.
type sink struct {
	handlers map[ids.SiteID]transport.Handler
	stats    *transport.Stats
}

func newSink() *sink {
	return &sink{handlers: make(map[ids.SiteID]transport.Handler), stats: transport.NewStats()}
}

func (s *sink) Register(id ids.SiteID, h transport.Handler) { s.handlers[id] = h }
func (s *sink) Send(_, _ ids.SiteID, _ transport.Payload)   {}
func (s *sink) Stats() *transport.Stats                     { return s.stats }

// batch64 is the BenchmarkBatchCommit group: 32 creates under the root
// and the 32 drops that free them, with deferred references.
func batch64(root ids.ObjectID) []wire.BatchOp {
	ops := make([]wire.BatchOp, 0, 64)
	for i := 0; i < 32; i++ {
		ops = append(ops, wire.BatchOp{Op: wire.OpRecord{Kind: wire.OpNewLocal, Holder: root}})
	}
	for i := 0; i < 32; i++ {
		ops = append(ops, wire.BatchOp{Op: wire.OpRecord{Kind: wire.OpDropRefs, Holder: root}, TargetFrom: i + 1})
	}
	return ops
}

func (p *probeSet) site() error {
	const commits = 200
	var probeErr error
	note := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	var inst site.Instance
	apply := func() {
		ops := batch64(inst.Root().Obj)
		for i := 0; i < commits; i++ {
			_, err := inst.ApplyBatch(ops)
			note(err)
		}
	}
	p.put("site.applybatch64_ns_per_op", timeOps(commits*64, func() {
		inst = site.New(1, newSink(), site.DefaultOptions())
	}, apply))
	p.put("site.sharded_applybatch64_ns_per_op", timeOps(commits*64, func() {
		inst = site.NewSharded(1, newSink(), site.DefaultOptions(), 2)
	}, apply))

	const pairs = 3000
	p.put("site.singleton_ns", timeOps(2*pairs, func() {
		inst = site.New(1, newSink(), site.DefaultOptions())
	}, func() {
		root := inst.Root().Obj
		for i := 0; i < pairs; i++ {
			ref, err := inst.NewLocal(root)
			note(err)
			note(inst.DropRefs(root, ref))
		}
	}))

	// One Create through the handler the site registered on its network.
	const creates = 3000
	var nw *sink
	p.put("site.deliver_ns", timeOps(creates, func() {
		nw = newSink()
		site.New(1, nw, site.DefaultOptions())
	}, func() {
		creator := ids.ClusterID{Site: 2, Seq: 1, Root: true}
		for i := 1; i <= creates; i++ {
			seq := uint64(2)<<32 | uint64(i)
			nw.handlers[1](2, wire.Create{
				Creator: creator, Stamp: uint64(i), Seq: uint64(i),
				Obj: ids.ObjectID{Site: 1, Seq: seq}, Cluster: ids.ClusterID{Site: 1, Seq: seq},
			})
		}
	}))
	if probeErr != nil {
		return fmt.Errorf("site probe: %w", probeErr)
	}

	// Recovery of a snapshot-free journal of 2 000 creates, scaled to
	// 10 000 records (recovery is super-linear in the history; README).
	const records = 2000
	dir, err := os.MkdirTemp(p.tmp, "recover-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	popts := site.PersistOptions{SnapshotEvery: 1 << 30, Store: persist.Options{NoSync: true}}
	j, err := site.OpenPersist(dir, popts)
	if err != nil {
		return err
	}
	rt, err := site.Recover(1, newSink(), site.DefaultOptions(), j)
	if err != nil {
		j.Close()
		return err
	}
	for i := 0; i < records; i++ {
		if _, err := rt.NewLocal(rt.Root().Obj); err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	var recErr error
	rec := timeOps(1, nil, func() {
		jr, err := site.OpenPersist(dir, popts)
		if err != nil {
			recErr = err
			return
		}
		_, recErr = site.Recover(1, newSink(), site.DefaultOptions(), jr)
		jr.Close()
	})
	if recErr != nil {
		return fmt.Errorf("site probe: recover: %w", recErr)
	}
	p.metrics["site.recover_ms_per_10k"] = rec.ns / 1e6 * 10000 / records
	return nil
}

// --- transport and tcp --------------------------------------------------

// pingPayload is a small control payload for the transport probes.
var pingPayload = wire.FrameAck{}

func (p *probeSet) transport() error {
	const n = 3000
	tr := transport.NewAsync(transport.Faults{})
	defer tr.Close()
	got := make(chan time.Time, 1)
	tr.Register(1, func(transport.SiteID, transport.Payload) { got <- time.Now() })
	lat := make([]int64, n)
	for i := range lat {
		t0 := time.Now()
		tr.Send(2, 1, pingPayload)
		lat[i] = int64((<-got).Sub(t0))
	}
	p.metrics["transport.async_send_to_deliver_us"] = float64(percentile(sortedCopy(lat), 50)) / 1e3
	return nil
}

func (p *probeSet) tcp() error {
	a, err := tcp.New(tcp.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcp.New(tcp.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer b.Close()
	a.SetPeer(2, b.Addr().String())
	b.SetPeer(1, a.Addr().String())

	// Round trip: a → b's handler → a's handler.
	back := make(chan struct{}, 1)
	var received atomic.Int64
	echo := true
	var echoMu sync.Mutex
	a.Register(1, func(transport.SiteID, transport.Payload) { back <- struct{}{} })
	b.Register(2, func(transport.SiteID, transport.Payload) {
		received.Add(1)
		echoMu.Lock()
		reply := echo
		echoMu.Unlock()
		if reply {
			b.Send(2, 1, pingPayload)
		}
	})
	const trips = 2000
	lat := make([]int64, trips)
	for i := range lat {
		t0 := time.Now()
		a.Send(1, 2, pingPayload)
		select {
		case <-back:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("tcp probe: round trip %d timed out", i)
		}
		lat[i] = int64(time.Since(t0))
	}
	p.metrics["tcp.roundtrip_p50_us"] = float64(percentile(sortedCopy(lat), 50)) / 1e3

	// One-way stream: one sender, one receiver.
	echoMu.Lock()
	echo = false
	echoMu.Unlock()
	const frames = 20000
	start := received.Load()
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		a.Send(1, 2, pingPayload)
	}
	deadline := time.Now().Add(30 * time.Second)
	for received.Load()-start < frames {
		if time.Now().After(deadline) {
			return fmt.Errorf("tcp probe: %d of %d frames arrived", received.Load()-start, frames)
		}
		time.Sleep(100 * time.Microsecond)
	}
	p.metrics["tcp.frames_per_s"] = frames / time.Since(t0).Seconds()

	// Real socket bytes per frame: point a peer address at a listener of
	// the benchmark's own and count what arrives for a typical frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	const counted = 200
	type tally struct {
		bytes int64
		err   error
	}
	done := make(chan tally, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- tally{err: err}
			return
		}
		defer conn.Close()
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // a failure shows as a read error
		var total int64
		for i := 0; i < counted; i++ {
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				done <- tally{err: err}
				return
			}
			size := int64(binary.BigEndian.Uint32(hdr[:]))
			if _, err := io.CopyN(io.Discard, conn, size); err != nil {
				done <- tally{err: err}
				return
			}
			total += 4 + size
		}
		done <- tally{bytes: total}
	}()
	a.SetPeer(9, ln.Addr().String())
	create := wire.Create{
		Creator: ids.ClusterID{Site: 1, Seq: 1, Root: true}, Stamp: 7, Seq: 3,
		Obj: ids.ObjectID{Site: 9, Seq: 1<<32 | 5}, Cluster: ids.ClusterID{Site: 9, Seq: 1<<32 | 5},
	}
	for i := 0; i < counted; i++ {
		a.Send(1, 9, create)
	}
	t := <-done
	if t.err != nil {
		return fmt.Errorf("tcp probe: counting socket bytes: %w", t.err)
	}
	p.metrics["tcp.socket_bytes_per_frame"] = float64(t.bytes) / counted
	return nil
}

// --- monitor ------------------------------------------------------------

func (p *probeSet) monitor() error {
	m := monitor.New(0)
	n := causalgc.NewNode(1, causalgc.WithMonitor(m))
	defer n.Close()
	for i := 0; i < 64; i++ {
		if _, err := n.NewLocal(n.Root().Obj); err != nil {
			return err
		}
	}
	const snaps, events = 2000, 200000
	s := timeOps(snaps, nil, func() {
		for i := 0; i < snaps; i++ {
			m.Snapshot()
		}
	})
	p.metrics["monitor.snapshot_us"] = s.ns / 1e3
	cl := causalgc.ClusterID{Site: 1, Seq: 99}
	p.put("monitor.event_ns", timeOps(events, nil, func() {
		for i := 0; i < events; i++ {
			m.ClusterRemoved(1, cl)
		}
	}))
	return nil
}
