package causalgc

import (
	"fmt"
	"runtime"
	"time"

	"causalgc/internal/site"
	"causalgc/internal/wire"
	"causalgc/monitor"
	"causalgc/persist"
	"causalgc/transport"
)

// Option configures a Node (and, when passed to NewCluster, every node
// of the cluster).
type Option func(*config)

type config struct {
	site          site.Options
	tr            transport.Transport
	persistDir    string
	snapshotEvery int
	groupCommit   time.Duration
	monitor       *monitor.Monitor
	shards        int
}

// setupMonitor composes the configured monitor into the node's observer
// slot, so it records events alongside any user observer. Must run
// before the runtime is built.
func (c *config) setupMonitor() {
	if c.monitor != nil {
		c.site.Observer = site.Fanout(c.monitor, c.site.Observer)
	}
}

func newConfig(opts []Option) config {
	c := config{site: site.DefaultOptions(), shards: 1}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// validate rejects nonsensical option values with typed errors
// (ErrBadOption): a negative snapshot cadence or group-commit window
// has no meaning, so accepting either would misconfigure the node.
func (c config) validate() error {
	if c.snapshotEvery < 0 {
		return fmt.Errorf("%w: WithSnapshotEvery(%d) must be non-negative", ErrBadOption, c.snapshotEvery)
	}
	if c.groupCommit < 0 {
		return fmt.Errorf("%w: WithGroupCommit(%v) must be non-negative", ErrBadOption, c.groupCommit)
	}
	return nil
}

// WithEngineOptions tunes the node's GGD engine: the removal trace
// observer.
func WithEngineOptions(e EngineOptions) Option {
	return func(c *config) { c.site.Engine.RemoveObserver = e.RemoveObserver }
}

// WithTransport attaches the node to an existing transport instead of a
// private one. The caller keeps ownership: Node.Close will not close it.
func WithTransport(t transport.Transport) Option {
	return func(c *config) { c.tr = t }
}

// WithObserver installs a metrics observer. Callbacks run under the
// node's internal lock and must not call back into the Node. After a
// crash recovery the observer sees replayed events again (removals and
// collections re-fire during the WAL replay).
func WithObserver(o Observer) Option {
	return func(c *config) { c.site.Observer = o }
}

// WithPersistence makes the node durable: every relevant mutator and
// GGD event is appended to a write-ahead log under dir before it takes
// effect, and the full site image is snapshotted periodically (the log
// is truncated at each snapshot). A node killed at any instant is
// reconstructed by Recover over the same directory. One directory
// serves exactly one site; NewCluster derives a per-site subdirectory.
//
// Prefer Recover as the constructor for persistent nodes — it both
// starts fresh directories and resumes existing ones, and it reports
// I/O errors instead of panicking.
func WithPersistence(dir string) Option {
	return func(c *config) { c.persistDir = dir }
}

// WithSnapshotEvery tunes how many WAL records accumulate between
// snapshots (default 1024). Smaller values bound recovery replay time;
// larger values reduce snapshot I/O.
func WithSnapshotEvery(records int) Option {
	return func(c *config) { c.snapshotEvery = records }
}

// WithMonitor attaches a metrics monitor to the node: the monitor's
// event recorder joins the observer slot (composed with any WithObserver
// observer via the event fanout, displacing neither) and its snapshot
// sources are bound to the node's stats surfaces. The caller keeps the
// monitor — serve it with monitor.NewServer. When passed to NewCluster, the supplied monitor serves site 1 and
// the remaining sites get fresh ones; read them back with Node.Monitor.
// A monitor handed to a recovered node re-attaches: its trace carries
// across the restart while per-session counters restart.
func WithMonitor(m *monitor.Monitor) Option {
	return func(c *config) { c.monitor = m }
}

// WithShards stripes the node's heap, GGD engine and outbound
// coalescer over n lock shards, keyed by cluster: commits against
// clusters on different shards proceed under different locks instead
// of serialising on one site mutex (see the inmem-batch workload and
// the site.sharded_applybatch64_ns_per_op probe of bench/). n < 1
// picks runtime.GOMAXPROCS(0). A cross-shard operation addresses the
// sibling shard like a remote peer and reuses the acknowledged-
// retirement machinery, so every protocol invariant — journal-before-
// send included — survives striping (DESIGN.md §3.4).
//
// Every node is n >= 1 shards of the same engine; without this option
// n is 1. The stripe width is sticky per persistence directory: a
// journal written with k shards recovers with k shards regardless of
// the option.
func WithShards(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = runtime.GOMAXPROCS(0)
		}
		c.shards = n
	}
}

// WithGroupCommit batches the write-ahead log's fsync across the
// mutator's op stream: records are written immediately but synced only
// once per window, cutting the per-operation durability tax an order of
// magnitude for write-heavy workloads (persist.append_* in bench/). A
// process crash (kill -9 included) still loses nothing — page-cache
// writes survive it, so kill-and-restart recovery is as strong as with
// per-record fsync. An OS crash (power loss, kernel panic) may lose up
// to one window of the newest records; since operations proceed before
// the deferred sync, messages derived from those records may already
// have reached peers, relaxing the journal-before-send invariant by at
// most one window. Use it where that OS-crash exposure is acceptable.
// Zero keeps per-record fsync.
func WithGroupCommit(window time.Duration) Option {
	return func(c *config) { c.groupCommit = window }
}

// Node is one causalgc site: a heap, a local collector and a GGD engine,
// attached to a transport. The node itself serialises its own state, so
// methods are safe for concurrent use whenever the underlying transport
// is: the concurrent in-memory backend (NewNode's default) and the TCP
// backend both are. The deterministic simulator is single-threaded by
// design — a Node or Cluster over it (NewCluster's default) must be
// driven from one goroutine.
//
// The mutator API models an application's reference manipulations. Every
// reference-holding object is identified by its ObjectID; each node has a
// root object (Root) whose slots are the application's named references —
// anything unreachable from the union of all roots is garbage and will be
// detected, distributed cycles included.
//
// After Close, mutator and collection operations return ErrNodeClosed;
// read-only introspection keeps answering from the frozen state.
type Node struct {
	rt    *site.Site
	tr    transport.Transport
	ownTr bool
	pst   *site.Persist
	mon   *monitor.Monitor

	gate closeGate
}

// attachMonitor binds a monitor's snapshot sources to a freshly built
// site (and its persistence store and transport, when present).
func attachMonitor(m *monitor.Monitor, rt *site.Site, pst *site.Persist, tr transport.Transport) {
	src := monitor.Sources{
		Objects:     rt.NumObjects,
		Engine:      rt.EngineStats,
		Frames:      rt.FrameStats,
		Depths:      rt.Depths,
		Shards:      rt.ShardCount,
		ShardDepths: rt.ShardDepths,
	}
	if pst != nil {
		src.Persist = pst.Store().Stats
	}
	if tr != nil {
		src.Transport = tr.Stats()
	}
	m.Attach(rt.ID(), src)
}

// newNode builds one node from a resolved configuration: the single
// construction path behind NewNode, Recover and NewCluster. Without a
// configured transport the node gets (and owns) a private concurrent
// in-memory one.
func newNode(id SiteID, c config) (*Node, error) {
	n := &Node{tr: c.tr}
	if n.tr == nil {
		n.tr = transport.NewAsync(transport.Faults{})
		n.ownTr = true
	}
	c.setupMonitor()
	n.mon = c.monitor
	if c.persistDir == "" {
		n.rt = site.NewSharded(id, n.tr, c.site, c.shards)
	} else {
		if n.mon != nil {
			// Pre-attach with empty sources so events re-fired during the
			// WAL replay below are traced with the right site; the real
			// sources bind once the site exists.
			n.mon.Attach(id, monitor.Sources{})
		}
		var err error
		n.pst, err = site.OpenPersist(c.persistDir, site.PersistOptions{
			SnapshotEvery: c.snapshotEvery,
			Store:         persist.Options{GroupCommit: c.groupCommit},
		})
		if err == nil {
			if n.rt, err = site.RecoverSharded(id, n.tr, c.site, n.pst, c.shards); err != nil {
				n.pst.Close()
			}
		}
		if err != nil {
			closeOwnedTransport(n.ownTr, n.tr, nil)
			return nil, err
		}
	}
	if n.mon != nil {
		attachMonitor(n.mon, n.rt, n.pst, n.tr)
	}
	return n, nil
}

// NewNode creates a node for site id and registers it on its transport.
// Without WithTransport the node runs over a private concurrent
// in-memory transport, which makes a standalone node self-contained;
// multi-site systems share one transport via NewCluster or WithTransport.
//
// With WithPersistence the node is recovered from (or started in) the
// directory exactly as by Recover, and NewNode panics on a persistence
// I/O error; call Recover directly to handle the error. NewNode also
// panics on an invalid option value (ErrBadOption). Either panic value
// is an error wrapping the cause, so a recover() can match it with
// errors.Is (persist.ErrCorrupt, ErrBadOption).
func NewNode(id SiteID, opts ...Option) *Node {
	c := newConfig(opts)
	if err := c.validate(); err != nil {
		// Panic with the wrapped error value so a recover() can still
		// match errors.Is(ErrBadOption).
		panic(fmt.Errorf("causalgc: NewNode(%v): %w", id, err))
	}
	n, err := newNode(id, c)
	if err != nil {
		panic(fmt.Errorf("causalgc: NewNode(%v): %w (use Recover to handle persistence errors)", id, err))
	}
	return n
}

// Recover builds a durable node from its WithPersistence directory:
// an empty directory starts a fresh journaled node; an existing one is
// reconstructed — latest snapshot loaded, WAL tail replayed, and one
// Refresh round run, which re-sends the unconfirmed mutator frames (a
// receiver applies each once, by its stream sequence), so the cluster
// re-converges. Recovery needs no new wire messages: everything it
// re-sends is idempotent under the protocol's stamp ordering.
func Recover(id SiteID, opts ...Option) (*Node, error) {
	c := newConfig(opts)
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("causalgc: Recover(%v): %w", id, err)
	}
	if c.persistDir == "" {
		return nil, fmt.Errorf("causalgc: Recover(%v): WithPersistence directory required", id)
	}
	n, err := newNode(id, c)
	if err != nil {
		return nil, fmt.Errorf("causalgc: Recover(%v): %w", id, err)
	}
	return n, nil
}

// ID returns the node's site identifier.
func (n *Node) ID() SiteID { return n.rt.ID() }

// Shards returns the node's lock-stripe width: the WithShards count
// (1 without the option), or the sticky count recovered from the
// journal.
func (n *Node) Shards() int { return n.rt.ShardCount() }

// Transport returns the transport the node is registered on.
func (n *Node) Transport() transport.Transport { return n.tr }

// Monitor returns the node's attached metrics monitor, or nil when the
// node was built without WithMonitor.
func (n *Node) Monitor() *monitor.Monitor { return n.mon }

// Close releases the node's resources: the persistence journal is
// closed (crash-equivalent — no final snapshot is forced; call
// Checkpoint first for a trimmed restart), and the private transport is
// closed (goroutines joined) if the node owns one. A node attached via
// WithTransport leaves the shared transport untouched. Operations
// concurrent with Close either complete before it or return
// ErrNodeClosed after it; Close is idempotent.
func (n *Node) Close() error {
	if !n.gate.close() {
		return nil
	}
	var err error
	n.rt.Close() // freeze: drop further deliveries from shared transports
	if n.pst != nil {
		err = n.pst.Close()
	}
	return closeOwnedTransport(n.ownTr, n.tr, err)
}

// closeTransport closes a transport if it supports closing.
func closeTransport(t transport.Transport) error {
	switch tr := t.(type) {
	case interface{ Close() error }:
		return tr.Close()
	case interface{ Close() }:
		tr.Close()
	}
	return nil
}

// closeOwnedTransport is the shared teardown tail of Node.Close and
// Cluster.Close: close the transport only when owned, folding its
// error behind any earlier one.
func closeOwnedTransport(owned bool, t transport.Transport, first error) error {
	if !owned {
		return first
	}
	if err := closeTransport(t); first == nil {
		first = err
	}
	return first
}

// Root returns the node's root object reference; its slots model the
// application's named references on this site.
func (n *Node) Root() Ref { return n.rt.Root() }

// NewLocal creates an object in a fresh cluster on this node, referenced
// from holder (often the root object). Like every singleton mutator
// method, it commits as a one-element batch (see Node.Batch): group
// several operations into one Batch to pay the lock, journal-fsync and
// transport-framing cost once instead of per call.
func (n *Node) NewLocal(holder ObjectID) (Ref, error) {
	return n.applyOne(wire.OpRecord{Kind: wire.OpNewLocal, Holder: holder})
}

// NewLocalIn creates an object in an existing local cluster, referenced
// from holder: the coarse clustering granularity of the paper's §3.5.
func (n *Node) NewLocalIn(holder ObjectID, cl ClusterID) (Ref, error) {
	return n.applyOne(wire.OpRecord{Kind: wire.OpNewLocalIn, Holder: holder, Clu: cl})
}

// NewClusterID mints a fresh local cluster identity for NewLocalIn.
func (n *Node) NewClusterID() (ClusterID, error) {
	if err := n.gate.enter(); err != nil {
		return ClusterID{}, err
	}
	defer n.gate.exit()
	return n.rt.NewCluster()
}

// NewRemote creates an object on the target site, referenced from
// holder. The caller mints the identities, so no round-trip is needed;
// the returned reference is usable immediately.
func (n *Node) NewRemote(holder ObjectID, target SiteID) (Ref, error) {
	return n.applyOne(wire.OpRecord{Kind: wire.OpNewRemote, Holder: holder, Site: target})
}

// SendRef copies a reference this node's object fromObj holds to the
// object named by to (on any site). target may denote fromObj itself, a
// local object, or a third-party object on yet another site; no
// synchronous control traffic is added in any case (the paper's lazy
// log-keeping).
func (n *Node) SendRef(fromObj ObjectID, to, target Ref) error {
	_, err := n.applyOne(wire.OpRecord{Kind: wire.OpSendRef, Holder: fromObj, To: to, Target: target})
	return err
}

// AddRef stores target into a new slot of holder (a local mutation).
func (n *Node) AddRef(holder ObjectID, target Ref) error {
	_, err := n.applyOne(wire.OpRecord{Kind: wire.OpAddRef, Holder: holder, Target: target})
	return err
}

// DropRefs clears every slot of holder referencing target's object.
func (n *Node) DropRefs(holder ObjectID, target Ref) error {
	_, err := n.applyOne(wire.OpRecord{Kind: wire.OpDropRefs, Holder: holder, Target: target})
	return err
}

// ClearSlot drops one slot of holder.
func (n *Node) ClearSlot(holder ObjectID, slot int) error {
	_, err := n.applyOne(wire.OpRecord{Kind: wire.OpClearSlot, Holder: holder, Slot: slot})
	return err
}

// Collect runs local collections until no further GGD cascade fires, and
// returns the first collection's statistics.
func (n *Node) Collect() (CollectStats, error) {
	if err := n.gate.enter(); err != nil {
		return CollectStats{}, err
	}
	defer n.gate.exit()
	return n.rt.Collect()
}

// Refresh re-propagates the node's dependency vectors: the recovery
// round that re-detects residual garbage after control-message loss.
func (n *Node) Refresh() error {
	if err := n.gate.enter(); err != nil {
		return err
	}
	defer n.gate.exit()
	return n.rt.Refresh()
}

// Checkpoint forces a snapshot of the node's durable state now,
// truncating the write-ahead log. A no-op without WithPersistence.
func (n *Node) Checkpoint() error {
	if err := n.gate.enter(); err != nil {
		return err
	}
	defer n.gate.exit()
	return n.rt.Checkpoint()
}

// NumObjects returns the number of live heap objects on this node
// (including the root object).
func (n *Node) NumObjects() int { return n.rt.NumObjects() }

// HasObject reports whether the object still exists on this node.
func (n *Node) HasObject(obj ObjectID) bool { return n.rt.HasObject(obj) }

// Objects returns a reference to every live object on this node, root
// included, in identifier order.
func (n *Node) Objects() []Ref {
	_, snap := n.rt.Snapshot()
	out := make([]Ref, 0, len(snap))
	for _, o := range snap {
		out = append(out, Ref{Obj: o.ID, Cluster: o.Cluster})
	}
	return out
}

// ClusterRemoved reports whether GGD detected the cluster as garbage and
// removed it.
func (n *Node) ClusterRemoved(cl ClusterID) bool { return n.rt.ClusterRemoved(cl) }

// Stats returns the node's GGD engine counters.
func (n *Node) Stats() EngineStats { return n.rt.EngineStats() }

// FrameStats returns the node's acknowledged-retirement counters: how
// much re-send state is outstanding and how it drains through
// cumulative acks.
func (n *Node) FrameStats() FrameStats { return n.rt.FrameStats() }

// LogSnapshot returns a deep copy of a local global root's
// dependency-vector log, or nil if the cluster is unknown or removed.
func (n *Node) LogSnapshot(cl ClusterID) *Log { return n.rt.LogSnapshot(cl) }

// Clock returns a local global root's event counter.
func (n *Node) Clock(cl ClusterID) uint64 { return n.rt.Clock(cl) }
