package site

import (
	"sort"
	"sync"
	"sync/atomic"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/vclock"
	"causalgc/internal/wire"
)

// Options configure a Site.
type Options struct {
	// AutoCollect runs a local collection whenever GGD removes a local
	// cluster, so reclamation cascades without explicit Collect calls.
	// Defaults to true via DefaultOptions.
	AutoCollect bool
	// Engine tunes the GGD engine (the unsafe ablation switch).
	Engine core.Options
	// Observer, when non-nil, receives lifecycle notifications. Callbacks
	// run with a shard mutex held and must not call back into the Site.
	Observer Observer
}

// Observer receives site lifecycle events: the public metrics hook of the
// causalgc API. Implementations must be fast and must not re-enter the
// Site (callbacks run under a shard mutex).
type Observer interface {
	// ClusterRemoved fires when GGD detects a local cluster as global
	// garbage and removes it.
	ClusterRemoved(site ids.SiteID, cluster ids.ClusterID)
	// Collected fires after every local mark-sweep collection, whether
	// requested explicitly or triggered by an AutoCollect cascade.
	Collected(site ids.SiteID, stats heap.CollectStats)
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{AutoCollect: true}
}

// Site is one site of the distributed system: n >= 1 shards — each a
// heap partition and a GGD engine under its own mutex (DESIGN.md §3.4)
// — behind one site identity. The shards share the identity mint
// (heap.Counters plus the remote-creation mint), the placement cursor,
// the retirement-stream table (streams) and one Persist journal. A
// durable site runs one journaled event at a time (lockEvent), so its
// journal order is its execution order: apply draws, and replay draws
// the same. The shards interact only through
// own-site frames, where a sibling shard is addressed exactly like a
// remote peer: a tracked frame is journaled before it is emitted,
// retained in the sending shard's outbox and retired by the ordinary
// FrameAck path, and the goroutine that emitted it delivers it once it
// has released the sender's lock (unlock) — in no promised order, which
// the protocol never needed (DESIGN.md §3.4). A one-shard site has no
// siblings and emits no such frame.
//
// Routing rule: a local cluster belongs to the shard recorded at its
// placement (round-robin for clusters minted under the root cluster,
// the executing shard otherwise); the site's root cluster belongs to
// shard 0; an unknown local cluster hashes deterministically. Objects
// follow their cluster and never migrate.
//
// Lock order: evMu → shards[0].mu → … → shards[n-1].mu → st.mu (leaf).
// On a durable site evMu is the only thing that orders journaled work:
// a commit, a delivery, a shard's part of a cycle, the whole recovery
// replay and the checkpoint that ends an event all run under it. A
// single operation holds ONE shard lock, which it releases before it
// delivers the own-site frames it emitted (unlock); only the
// stop-the-world checkpoint holds every shard lock, in ascending index
// order, because readers (NumObjects, ShardDepths) take a shard lock
// without evMu.
//
// Methods are safe for concurrent use.
type Site struct {
	id   ids.SiteID
	net  netsim.Network
	opts Options
	n    int

	shards []*shard
	st     *streams
	ctr    *heap.Counters

	// journal is the site's Persist (nil for a volatile site). Shards
	// append to it directly; snapshots go through the stop-the-world
	// checkpoint, never through a single shard.
	journal *Persist

	// objMap routes objects to shards (ids.ObjectID → int), maintained
	// by each shard heap's object tracker. cluMap routes local clusters
	// (ids.ClusterID → int), appended at placement time and never
	// shrunk: a removed cluster keeps routing to the shard holding its
	// tombstone, so zombie-drop and stale-delivery logic fire on the
	// right engine. Both stay empty on a one-shard site, where every
	// lookup answers shard 0 without consulting them.
	objMap sync.Map
	cluMap sync.Map

	// rr is the round-robin placement cursor for clusters minted under
	// the root cluster and for bare clusters (persisted as
	// SiteImage.PlaceRR).
	rr atomic.Uint64

	// evMu is a durable site's event lock (lockEvent).
	evMu sync.Mutex

	// replaying is set while recovery replays the WAL: staging,
	// journaling and own-site frames are suppressed. Written only
	// under evMu, by recovery.
	replaying bool
}

// Instance is the handle the layers above hold on a site.
type Instance = *Site

// New creates a volatile one-shard site and registers it on the
// network. For a durable site use Recover.
func New(id ids.SiteID, net netsim.Network, opts Options) *Site {
	return NewSharded(id, net, opts, 1)
}

// NewSharded creates a volatile site with n shards (n < 1 is clamped to
// 1) and registers it on the network. For a durable site use
// RecoverSharded.
func NewSharded(id ids.SiteID, net netsim.Network, opts Options, n int) *Site {
	s := newSite(id, net, opts, n)
	for _, r := range s.shards {
		r.initFresh()
	}
	s.trackObjects()
	net.Register(id, s.handleNet)
	return s
}

// newSite allocates a site of n shards; the caller gives every shard its
// heap and engine (fresh, or restored from an image).
func newSite(id ids.SiteID, net netsim.Network, opts Options, n int) *Site {
	if n < 1 {
		n = 1
	}
	s := &Site{
		id:     id,
		net:    net,
		opts:   opts,
		n:      n,
		shards: make([]*shard, n),
		st:     newStreams(),
		ctr:    heap.NewCounters(),
	}
	for i := range s.shards {
		s.shards[i] = newShard(s, i)
	}
	return s
}

// --- Routing -------------------------------------------------------------

// trackObjects wires every shard heap into the object routing map and
// seeds it with the objects already there (the root; a restored heap's
// contents — the tracker only sees live mutations).
func (s *Site) trackObjects() {
	if s.n == 1 {
		return
	}
	for i, r := range s.shards {
		idx := i
		for _, o := range r.heap.Objects() {
			s.objMap.Store(o.ID(), idx)
		}
		r.heap.SetObjectTracker(func(obj ids.ObjectID, alive bool) {
			if alive {
				s.objMap.Store(obj, idx)
			} else {
				s.objMap.Delete(obj)
			}
		})
	}
}

// shardFor routes an operation to the shard owning the given object
// (shard 0 for unknown objects, whose operations fail there with the
// same ErrNoSuchObject any shard would report).
func (s *Site) shardFor(obj ids.ObjectID) *shard {
	if s.n > 1 {
		if v, ok := s.objMap.Load(obj); ok {
			return s.shards[v.(int)]
		}
	}
	return s.shards[0]
}

// clusterShardIdx answers the routing shard of a same-site cluster:
// the root cluster is shard 0's, placed clusters route by the
// placement map, anything else (a cluster minted remotely on this
// site's behalf) hashes deterministically so every shard — and every
// recovery — agrees without coordination.
func (s *Site) clusterShardIdx(cl ids.ClusterID) int {
	if s.n == 1 || cl.Root {
		return 0
	}
	if v, ok := s.cluMap.Load(cl); ok {
		return v.(int)
	}
	return int(hashCluster(cl) % uint64(s.n))
}

// setClusterShard records that cl routes to shard idx.
func (s *Site) setClusterShard(cl ids.ClusterID, idx int) {
	if s.n > 1 {
		s.cluMap.Store(cl, idx)
	}
}

// hashCluster is a fixed splitmix64-style mix: the fallback routing
// hash must be identical across runs and across recoveries.
func hashCluster(cl ids.ClusterID) uint64 {
	x := cl.Seq ^ (uint64(cl.Site) << 32) ^ 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// placeCluster decides and records the placement of a freshly minted
// local cluster, returning its shard. Clusters minted under the root
// cluster spread round-robin (they are the anchors parallel mutators
// fan out from); everything else stays with the executing shard for
// locality. pin forces the executing shard (multi-op batches, where a
// cross-shard create would strand the batch's deferred references).
func (s *Site) placeCluster(newClu, holderClu ids.ClusterID, executing int, pin bool) int {
	idx := executing
	if !pin && holderClu.Root {
		idx = int(s.rr.Add(1)-1) % s.n
	}
	s.setClusterShard(newClu, idx)
	return idx
}

// frameShards answers the destination shards of one frame as the index
// range [lo, hi): one shard by the destination cluster (mutator frames
// by the target object's cluster, GGD control frames by the To
// cluster), except acknowledgements, which fan out to every shard —
// the shared stream watermark is cumulative across shards and
// retirement is idempotent, so each shard retires its own covered
// rows.
func (s *Site) frameShards(p netsim.Payload) (lo, hi int) {
	i := 0
	switch m := p.(type) {
	case wire.FrameAck:
		return 0, s.n
	case wire.Create:
		i = s.clusterShardIdx(m.Cluster)
	case wire.RefTransfer:
		if m.ToCluster.Valid() {
			i = s.clusterShardIdx(m.ToCluster)
		} else {
			i = s.shardFor(m.ToObj).index
		}
	case wire.Destroy:
		i = s.clusterShardIdx(m.To)
	case wire.Assert:
		i = s.clusterShardIdx(m.To)
	case wire.Propagate:
		i = s.clusterShardIdx(m.To)
	}
	return i, i + 1
}

// --- Delivery ------------------------------------------------------------

// handleNet is the transport entry point.
func (s *Site) handleNet(from ids.SiteID, p netsim.Payload) {
	s.cascade(s.route(from, p))
}

// lockEvent takes a durable site's event lock, before the shard lock of
// every path that may append — a commit, a delivery, a shard's part of
// a cycle — so one journaled event runs at a time and the journal order
// is the execution order. A volatile site takes nothing.
func (s *Site) lockEvent() {
	if s.journal != nil {
		s.evMu.Lock()
	}
}

// unlockEvent ends the event lockEvent began: when the event's appends
// made a snapshot due, the checkpoint runs as the event's tail, still
// under evMu, and only then is the lock released. A failed checkpoint
// is sticky inside Persist (the next append surfaces it); the event
// itself is already durable in the WAL.
func (s *Site) unlockEvent() {
	if s.journal == nil {
		return
	}
	if s.journal.Due() {
		_ = s.checkpointEvent()
	}
	s.evMu.Unlock()
}

// unlock releases r.mu and the event lock, then delivers the own-site
// frames emitted under them: what leaves a shard when its lock is
// released goes through here. Each delivery is an event of its own. The
// caller took lockEvent and r.mu in its own body.
func (s *Site) unlock(r *shard) {
	work := r.handoff
	r.handoff = nil
	r.mu.Unlock()
	s.unlockEvent()
	s.cascade(work)
}

// cascade delivers own-site frames, and the own-site frames those
// deliveries emit in turn, as a worklist with no shard lock held: a
// cross-shard chain of any length runs in constant stack. It
// terminates — delivering an ack emits nothing, and mutator and
// control cascades bottom out in the engines.
func (s *Site) cascade(work []netsim.Payload) {
	for len(work) > 0 {
		p := work[0]
		work[0] = nil
		work = append(work[1:], s.route(s.id, p)...)
	}
}

// route delivers one payload, from the network or from a sibling, to
// the shards it addresses and returns the own-site frames those
// deliveries emitted. An envelope splits into one sub-envelope per
// destination shard (inner order preserved within each shard). Only the
// last shard reached flushes acknowledgements, so the payload draws one
// FrameAck per stream however many shards settled it.
func (s *Site) route(from ids.SiteID, p netsim.Payload) (emitted []netsim.Payload) {
	env, ok := p.(wire.Envelope)
	if !ok || s.n == 1 {
		lo, hi := s.frameShards(p)
		for i := lo; i < hi; i++ {
			emitted = append(emitted, s.shards[i].handle(from, p, i == hi-1)...)
		}
		return emitted
	}
	parts := make([][]netsim.Payload, s.n)
	last := -1 // an envelope is input from outside: it may be empty
	for _, f := range env.Frames {
		lo, hi := s.frameShards(f)
		for i := lo; i < hi; i++ {
			parts[i] = append(parts[i], f)
		}
		last = max(last, hi-1)
	}
	for i, part := range parts {
		switch len(part) {
		case 0:
		case 1:
			emitted = append(emitted, s.shards[i].handle(from, part[0], i == last)...)
		default:
			emitted = append(emitted, s.shards[i].handle(from, wire.Envelope{Frames: part}, i == last)...)
		}
	}
	return emitted
}

// --- Mutator API ---------------------------------------------------------

// ID returns the site identifier.
func (s *Site) ID() ids.SiteID { return s.id }

// Root returns a reference to the site's root object (owned by shard
// 0); its slots model the mutator's named references.
func (s *Site) Root() heap.Ref { return s.shards[0].heap.RootRef() }

// ShardCount returns the number of shards.
func (s *Site) ShardCount() int { return s.n }

// Close freezes the site: deliveries still arriving from a shared
// transport are dropped (tolerated loss) instead of mutating state, so
// post-Close introspection reads a stable image. Mutator entry points
// are gated by the owning Node.
func (s *Site) Close() {
	for _, r := range s.shards {
		r.mu.Lock()
		r.closed = true
		r.mu.Unlock()
	}
}

// The mutator methods below commit groups of one (Apply, batch.go).

// NewLocal creates an object in a fresh cluster on this site, referenced
// from holder (often the root object), and returns a reference to it.
// The placement policy may put the new cluster on a sibling of the
// holder's shard, reached by an own-site Create frame.
func (s *Site) NewLocal(holder ids.ObjectID) (heap.Ref, error) {
	return s.Apply(wire.OpRecord{Kind: wire.OpNewLocal, Holder: holder})
}

// NewCluster mints a fresh local cluster identity (for OpNewLocalIn) on
// the shard the placement cursor names — bare clusters pin to their
// executing shard, which owns them — and the apply advances the cursor,
// so successive bare clusters rotate over the shards.
func (s *Site) NewCluster() (ids.ClusterID, error) {
	r := s.shards[int(s.rr.Load())%s.n]
	ref, err := s.commitOne(r, wire.OpRecord{Kind: wire.OpNewCluster})
	return ref.Cluster, err
}

// NewRemote creates an object in a fresh cluster on the target site,
// referenced from holder: the paper's "a root object 1 creates an object
// 2" (§3.1). The creator mints the identities; the creation message
// carries the creator's stamp — the only piggybacked log-keeping datum.
func (s *Site) NewRemote(holder ids.ObjectID, target ids.SiteID) (heap.Ref, error) {
	return s.Apply(wire.OpRecord{Kind: wire.OpNewRemote, Holder: holder, Site: target})
}

// SendRef copies a reference the sender holds to a (usually remote)
// object: the mutator messages of Fig 7. fromObj must currently hold
// target in one of its slots; to names the destination object. When the
// destination lives on the sender's shard the copy is immediate;
// otherwise a single mutator message is sent — lazy log-keeping adds no
// control messages even when target denotes a third-party object on yet
// another site (§3.4).
func (s *Site) SendRef(fromObj ids.ObjectID, to heap.Ref, target heap.Ref) error {
	_, err := s.Apply(wire.OpRecord{Kind: wire.OpSendRef, Holder: fromObj, To: to, Target: target})
	return err
}

// DropRefs clears every slot of holder that references target.Obj: the
// mutator destroys its edge(s) to that object.
func (s *Site) DropRefs(holder ids.ObjectID, target heap.Ref) error {
	_, err := s.Apply(wire.OpRecord{Kind: wire.OpDropRefs, Holder: holder, Target: target})
	return err
}

// --- GGD cycles ----------------------------------------------------------

// Collect runs local collections until no further GGD cascade fires, on
// every shard in turn. Each shard's part is one event: the shard
// journals its own OpCollect marker right before it sweeps, and replay
// sweeps that shard there. A part whose marker cannot be journaled does
// not run, and neither do the parts after it: a sweep no replay
// reproduces would re-issue its stamps (DESIGN.md §5). Cross-shard
// cascades settle as each shard's lock is released.
func (s *Site) Collect() (heap.CollectStats, error) {
	var total heap.CollectStats
	for _, r := range s.shards {
		s.lockEvent()
		r.mu.Lock()
		stats, err := r.collectShardLocked()
		s.unlock(r)
		if err != nil {
			return total, err
		}
		total.Marked += stats.Marked
		total.Swept += stats.Swept
		total.Roots += stats.Roots
	}
	return total, nil
}

// Refresh is the recovery round that re-detects residual garbage after
// message loss (§5, DESIGN.md §3.2): every shard re-propagates its
// processes' vectors and re-ships its unacknowledged retained state.
// Like Collect, each shard journals its own OpRefresh marker right
// before its part, and a part whose marker cannot be journaled runs on
// no shard, nor do the parts after it.
func (s *Site) Refresh() error {
	for _, r := range s.shards {
		s.lockEvent()
		r.mu.Lock()
		err := r.refreshShardLocked()
		s.unlock(r)
		if err != nil {
			return err
		}
	}
	return nil
}

// --- Introspection -------------------------------------------------------

// NumObjects returns the number of live heap objects (including the
// root object): each object lives in exactly one shard heap.
func (s *Site) NumObjects() int {
	total := 0
	for _, r := range s.shards {
		r.mu.Lock()
		total += r.heap.NumObjects()
		r.mu.Unlock()
	}
	return total
}

// HasObject reports whether the object still exists.
func (s *Site) HasObject(obj ids.ObjectID) bool {
	// The routing entry may lag a restore or a sweep: scan every shard
	// before concluding absence (a false negative would misreport a
	// live object; the scan is a read-only query off the hot path).
	for _, r := range s.shards {
		r.mu.Lock()
		has := r.heap.Object(obj) != nil
		r.mu.Unlock()
		if has {
			return true
		}
	}
	return false
}

// clusterShard locks and returns the shard owning cl; the caller
// unlocks it.
func (s *Site) clusterShard(cl ids.ClusterID) *shard {
	r := s.shards[s.clusterShardIdx(cl)]
	r.mu.Lock()
	return r
}

// ClusterRemoved reports whether GGD removed the cluster.
func (s *Site) ClusterRemoved(cl ids.ClusterID) bool {
	r := s.clusterShard(cl)
	defer r.mu.Unlock()
	return r.engine.Removed(cl)
}

// LogSnapshot returns a deep copy of a local process's log, or nil.
func (s *Site) LogSnapshot(cl ids.ClusterID) *vclock.Log {
	r := s.clusterShard(cl)
	defer r.mu.Unlock()
	return r.engine.LogSnapshot(cl)
}

// Clock returns a local process's event counter.
func (s *Site) Clock(cl ids.ClusterID) uint64 {
	r := s.clusterShard(cl)
	defer r.mu.Unlock()
	return r.engine.Clock(cl)
}

// EngineStats sums the per-shard GGD engine counters.
func (s *Site) EngineStats() core.Stats {
	var total core.Stats
	for _, r := range s.shards {
		r.mu.Lock()
		st := r.engine.Stats()
		r.mu.Unlock()
		total.Removed += st.Removed
		total.Evaluations += st.Evaluations
		total.PropagationsSent += st.PropagationsSent
		total.DestroysSent += st.DestroysSent
		total.AssertsSent += st.AssertsSent
		total.AssertResends += st.AssertResends
		total.DestroyResends += st.DestroyResends
		total.ResendsSuppressed += st.ResendsSuppressed
		total.RowsRetired += st.RowsRetired
		total.HintsExpired += st.HintsExpired
		total.StaleDeliveries += st.StaleDeliveries
	}
	return total
}

// ObjectSnapshot is one object's state for the oracle.
type ObjectSnapshot struct {
	ID      ids.ObjectID
	Cluster ids.ClusterID
	Slots   []heap.Ref
}

// Snapshot exports the site's root and objects (sorted by ID) for the
// global oracle.
func (s *Site) Snapshot() (root ids.ObjectID, objs []ObjectSnapshot) {
	for _, r := range s.shards {
		r.mu.Lock()
		for _, o := range r.heap.Objects() {
			objs = append(objs, ObjectSnapshot{ID: o.ID(), Cluster: o.Cluster(), Slots: o.Slots()})
		}
		r.mu.Unlock()
	}
	if s.n > 1 { // one shard's objects are already in ID order
		sort.Slice(objs, func(i, j int) bool { return objs[i].ID.Less(objs[j].ID) })
	}
	return s.Root().Obj, objs
}
