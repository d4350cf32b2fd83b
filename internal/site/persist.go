package site

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
	"causalgc/persist"
)

// PersistOptions tune a Persist journal.
type PersistOptions struct {
	// SnapshotEvery takes a snapshot (and truncates the WAL) after this
	// many appended records. Zero means 1024.
	SnapshotEvery int
	// Store configures the underlying persist.Store.
	Store persist.Options
}

func (o PersistOptions) withDefaults() PersistOptions {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 1024
	}
	return o
}

// Persist is a site's journal: wire-encoded records over a
// persist.Store, with a snapshot every SnapshotEvery records. The
// shards of a site share one Persist (one WAL and one snapshot per
// site). It is not safe for concurrent use: the site calls Append, Due
// and ForceCheckpoint only under its event lock.
type Persist struct {
	store    *persist.Store
	opts     PersistOptions
	appended int
	// sticky records the first checkpoint failure; subsequent appends
	// surface it so disk trouble degrades loudly instead of silently
	// growing an untruncatable WAL.
	sticky error
}

// OpenPersist opens (or creates) the persistence directory for one
// site and recovers its durable state.
func OpenPersist(dir string, opts PersistOptions) (*Persist, error) {
	st, err := persist.Open(dir, opts.Store)
	if err != nil {
		return nil, err
	}
	// Recovered WAL records count toward the snapshot threshold:
	// otherwise a process that crashes faster than SnapshotEvery fresh
	// appends would never truncate, and each restart would replay an
	// ever-growing log.
	return &Persist{store: st, opts: opts.withDefaults(), appended: len(st.WAL())}, nil
}

// Load decodes the recovered snapshot (nil for a fresh directory) and
// the WAL tail appended after it.
func (p *Persist) Load() (*wire.SiteImage, []*wire.WALRecord, error) {
	var img *wire.SiteImage
	if body := p.store.Snapshot(); body != nil {
		var err error
		img, err = wire.DecodeSnapshot(body)
		if err != nil {
			return nil, nil, err
		}
	}
	raw := p.store.WAL()
	recs := make([]*wire.WALRecord, 0, len(raw))
	for i, data := range raw {
		rec, err := wire.DecodeRecord(data)
		if err != nil {
			// A record the store's CRC accepted but the codec rejects is
			// corruption, not a torn tail.
			return nil, nil, fmt.Errorf("wal record %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	return img, recs, nil
}

// Append makes one record durable: it is called write-ahead — before
// the recorded event mutates state or sends messages.
func (p *Persist) Append(rec *wire.WALRecord) error {
	data, err := wire.EncodeRecord(rec)
	if err != nil {
		return err
	}
	if p.sticky != nil {
		return p.sticky
	}
	if err := p.store.Append(data); err != nil {
		return err
	}
	p.appended++
	return nil
}

// Due reports whether enough records accumulated since the last
// snapshot to warrant one. The site asks at the end of every event,
// still under its event lock, and runs the stop-the-world checkpoint
// as the event's tail when it trips.
func (p *Persist) Due() bool {
	return p.appended >= p.opts.SnapshotEvery
}

// ForceCheckpoint snapshots unconditionally and truncates the WAL. The
// caller must guarantee no append lands between build and the snapshot
// write: the site calls it under its event lock, holding every shard's
// lock across the whole call.
func (p *Persist) ForceCheckpoint(build func() (*wire.SiteImage, error)) error {
	img, err := build()
	var data []byte
	if err == nil {
		data, err = wire.EncodeSnapshot(img)
	}
	if err == nil {
		err = p.store.WriteSnapshot(data)
	}
	if err != nil {
		if p.sticky == nil {
			p.sticky = fmt.Errorf("site: checkpoint failed: %w", err)
		}
		return err
	}
	// A successful snapshot is a complete, consistent durable image:
	// whatever failed before is superseded, so the journal un-wedges.
	p.sticky = nil
	p.appended = 0
	return nil
}

// Store exposes the underlying store (stats, tests).
func (p *Persist) Store() *persist.Store { return p.store }

// Close closes the underlying store without snapshotting: a closed
// journal is crash-equivalent by design; call ForceCheckpoint first for
// a trimmed restart.
func (p *Persist) Close() error { return p.store.Close() }

// --- Checkpointing -------------------------------------------------------

// checkpointEvent is the stop-the-world snapshot, run under evMu (no
// event can append meanwhile): acquire every shard mutex in ascending
// order, export the image, and write it while still holding everything
// — readers take a shard lock without evMu.
//
// The world stops to export, not to drain: an own-site frame a
// goroutine holds between releasing its sender's lock and taking its
// receiver's is a post-snapshot delivery — its journal record lands
// after the truncation — and a tracked one has its sender's outbox row
// in the image.
func (s *Site) checkpointEvent() error {
	for _, r := range s.shards {
		r.mu.Lock()
	}
	defer func() {
		for _, r := range s.shards {
			r.mu.Unlock()
		}
	}()
	return s.journal.ForceCheckpoint(s.exportImageAllLocked)
}

// Checkpoint forces a snapshot now (and truncates the WAL). A no-op on
// a volatile site.
func (s *Site) Checkpoint() error {
	if s.journal == nil {
		return nil
	}
	s.evMu.Lock()
	defer s.evMu.Unlock()
	return s.checkpointEvent()
}

// --- Recovery ------------------------------------------------------------

// Recover is RecoverSharded asking for one shard: the constructor of a
// durable site built without a stripe width.
func Recover(id ids.SiteID, net netsim.Network, opts Options, j *Persist) (*Site, error) {
	return RecoverSharded(id, net, opts, j, 1)
}

// RecoverSharded reconstructs a site from its journal and resumes the
// protocol: load the latest snapshot, replay the WAL tail through the
// regular commit and delivery paths (journaling suppressed — the
// records are already durable), and run one journaled Refresh, which
// re-sends the outboxes' mutator frames (a receiver applies each once,
// by its stream sequence) and lets peers re-converge. A fresh journal
// yields a fresh site of the requested width with journaling enabled,
// so RecoverSharded doubles as the persistent constructor.
//
// The stripe width is sticky per data directory: the snapshot's shard
// count — or, before the first snapshot exists, the width stamped on
// the WAL records — wins over the argument, because WAL shard tags and
// the fallback routing hash are only meaningful at the width that
// wrote them.
//
// Replay is exact: every record goes back to the shard that journaled
// it, in journal order — a durable site's execution order, so every
// identity, placement and stream sequence apply draws comes out as the
// live run's — and every engine-clock-advancing entry point is itself
// journaled, a shard's part of a Collect or Refresh included — which
// is why a recovered site never re-issues an already-used stamp for a
// new event (the unsafety that would let an old Ē mask a live edge).
// Messages re-sent during replay are duplicates of pre-crash traffic:
// GGD control messages are idempotent by merge, and a creation or a
// reference transfer applies iff its stream sequence is recorded at
// that delivery (DESIGN.md §3.2). Self-addressed frames
// are NOT re-routed during replay — the destination shard's own
// Deliver records carry them — and a crash between the sender's journal
// append and the receiver's is healed like any lost frame: outbox
// re-send, refresh.
//
// The replay is one event: recovery takes the event lock before it
// registers on the network and holds it across the whole WAL, so live
// traffic arriving meanwhile waits on the lock (the transport's
// delivery goroutine blocks) and is journaled after the replayed
// records — the WAL stays the site's execution order.
func RecoverSharded(id ids.SiteID, net netsim.Network, opts Options, j *Persist, shards int) (*Site, error) {
	img, recs, err := j.Load()
	if err != nil {
		return nil, fmt.Errorf("site %v: recover: %w", id, err)
	}
	switch {
	case img != nil:
		if img.Site != id {
			return nil, fmt.Errorf("site %v: recover: journal belongs to site %v", id, img.Site)
		}
		shards = len(img.Shards)
	case len(recs) > 0 && recs[0].Width > 0:
		shards = recs[0].Width
	}
	s := newSite(id, net, opts, shards)
	if err := checkRecords(recs, s.n); err != nil {
		return nil, fmt.Errorf("site %v: recover: %w", id, err)
	}
	s.journal = j
	if img == nil {
		for _, r := range s.shards {
			r.initFresh()
		}
	} else {
		restoreStreams(s.st, img)
		s.rr.Store(img.PlaceRR)
		// Routing map first: restoring a shard engine installs the owns
		// predicate, which consults it immediately.
		for i, ss := range img.Shards {
			s.seedRouting(i, ss)
		}
		for i, ss := range img.Shards {
			if err := s.shards[i].restore(ss, img.PeerEpochs); err != nil {
				return nil, fmt.Errorf("site %v: recover: shard %d: %w", id, i, err)
			}
		}
	}
	s.trackObjects()
	s.lockEvent()
	s.replaying = true
	// Register before replay: frames from already-running peers wait on
	// the event lock instead of being dropped by the transport.
	net.Register(id, s.handleNet)
	for _, rec := range recs {
		s.applyRecord(rec)
	}
	s.replaying = false
	s.unlockEvent()
	// One refresh re-propagates the recovered GGD state, so detection
	// resumes without waiting for new mutator activity, and re-sends every
	// shard's unconfirmed mutator frames (restored dampers are due at
	// once): at-least-once delivery, applied once at the receivers.
	if err := s.Refresh(); err != nil {
		return nil, fmt.Errorf("site %v: recover: %w", id, err)
	}
	if img != nil {
		// Make the bumped recovery epoch durable immediately: without
		// this, a second crash inside one SnapshotEvery window would
		// restore the same pre-bump snapshot and re-use the epoch, and
		// peers would skip the damper reset for the second restart. The
		// forced snapshot also bounds the next replay.
		if err := s.Checkpoint(); err != nil {
			return nil, fmt.Errorf("site %v: recover: checkpoint: %w", id, err)
		}
	}
	return s, nil
}

// seedRouting pre-populates the cluster routing map from one shard's
// durable image: live clusters, engine processes, and tombstones (a
// removed cluster must keep routing to the shard holding its
// tombstone).
func (s *Site) seedRouting(i int, ss wire.ShardState) {
	seed := func(cl ids.ClusterID) {
		if cl.Site == s.id && !cl.Root {
			s.setClusterShard(cl, i)
		}
	}
	for _, ci := range ss.Heap.Clusters {
		seed(ci.ID)
	}
	for _, pi := range ss.Engine.Procs {
		seed(pi.ID)
	}
	for cl := range ss.Engine.Tombstones {
		seed(cl)
	}
}

// checkRecords rejects a WAL this code did not write at this width,
// by record index — records are input from disk. An Op record of any
// kind but the two cycle markers: mutator commits are
// journaled as Batch records, and replaying a guess at its meaning
// would shift every later identity. A shard tag outside [0, width), or
// a stamped width other than the directory's: the tag and the fallback
// routing hash mean something only at the width that wrote them.
func checkRecords(recs []*wire.WALRecord, width int) error {
	for i, rec := range recs {
		if rec.Op != nil && rec.Op.Kind != wire.OpCollect && rec.Op.Kind != wire.OpRefresh {
			return fmt.Errorf("wal record %d: Op record of kind %v: only Collect and Refresh are journaled as Op records", i, rec.Op.Kind)
		}
		if rec.Shard < 0 || rec.Shard >= width {
			return fmt.Errorf("wal record %d: shard tag %d outside a %d-shard directory", i, rec.Shard, width)
		}
		if rec.Width != 0 && rec.Width != width {
			return fmt.Errorf("wal record %d: written at width %d in a %d-shard directory", i, rec.Width, width)
		}
	}
	return nil
}

// applyRecord replays one WAL record (checkRecords passed) on the shard
// that journaled it: a mutator commit, a delivery, or that shard's part
// of a cycle. Errors are ignored: a record that failed when first
// applied fails identically on replay (replay determinism), and a
// delivery can never fail. Caller holds evMu for the whole replay.
func (s *Site) applyRecord(rec *wire.WALRecord) {
	r := s.shards[rec.Shard]
	r.mu.Lock()
	switch {
	case rec.Op != nil && rec.Op.Kind == wire.OpCollect:
		_, _ = r.collectShardLocked()
	case rec.Op != nil:
		_ = r.refreshShardLocked()
	case rec.Deliver != nil:
		r.dispatchLocked(rec.Deliver.From, rec.Deliver.Payload, true)
	case rec.Batch != nil:
		_ = r.commitLocked(rec.Batch.Ops, make([]heap.Ref, len(rec.Batch.Ops)))
	}
	r.mu.Unlock() // replay emits no own-site frame
}

// restore rebuilds the shard's heap, engine and delivery state from its
// durable state block, and its view of the peers' epochs from the
// site's. Outbox dampers reset on restore: recovery's refresh round
// finds every restored row due.
func (r *shard) restore(ss wire.ShardState, peers []wire.PeerEpochImage) error {
	s := r.site
	var err error
	r.engine, err = core.Restore(s.id, (*sender)(r), r.onRemove, r.engineOptions(), ss.Engine)
	if err != nil {
		return err
	}
	r.heap, err = heap.RestoreShard((*hooks)(r), ss.Heap, s.ctr, r.index == 0)
	if err != nil {
		return err
	}
	r.removals = ss.Removals
	for _, f := range ss.Outbox {
		r.outbox.Put(outKey{f.To, f.Seq}, f.To, f.Seq, f.Payload)
	}
	for _, pe := range peers {
		r.peerEpoch[pe.Peer] = pe.Epoch
	}
	return nil
}

// restoreStreams rebuilds the shared stream table from a snapshot
// image. Each recovery opens a new epoch: peers seeing it on the next
// FrameAck re-arm their re-send dampers toward this site.
func restoreStreams(st *streams, img *wire.SiteImage) {
	st.mint = img.Mint
	st.epoch = img.Epoch + 1
	st.fstats = restoreFrameStats(img.Frames)
	for _, s := range img.SendStreams {
		st.send[streamKey{peer: s.Peer, kind: s.Kind}] = s.NextSeq
	}
	for _, s := range img.RecvStreams {
		t := &recvTracker{watermark: s.Watermark}
		if len(s.Pending) > 0 {
			t.pending = make(map[uint64]struct{}, len(s.Pending))
			for _, seq := range s.Pending {
				t.pending[seq] = struct{}{}
			}
		}
		st.recv[streamKey{peer: s.Peer, kind: s.Kind}] = t
	}
}

// restoreFrameStats rebuilds the site counters from their image.
func restoreFrameStats(f wire.FrameStatsImage) FrameStats {
	return FrameStats{
		AcksSent: f.AcksSent, AcksReceived: f.AcksReceived,
		FramesRetired: f.FramesRetired, OutboxResends: f.OutboxResends,
		ResendsSuppressed: f.ResendsSuppressed,
	}
}

// exportShardStateLocked renders this shard's partition of the site
// state: heap, engine, and delivery-side buffers — everything except
// the shared stream table. Caller holds r.mu at a quiescent point
// (engine drained).
func (r *shard) exportShardStateLocked() (wire.ShardState, error) {
	eng, err := r.engine.Export()
	if err != nil {
		return wire.ShardState{}, err
	}
	ss := wire.ShardState{
		Heap:     r.heap.Export(),
		Engine:   eng,
		Removals: r.removals,
	}
	r.outbox.Each(func(k outKey, p netsim.Payload, seq uint64) {
		ss.Outbox = append(ss.Outbox, wire.FrameImage{To: k.to, Payload: p, Seq: seq})
	})
	return ss, nil
}

// exportInto renders the shared stream table into the image
// (deterministically ordered). Safe under any shard's r.mu: it takes
// the leaf st.mu itself.
func (st *streams) exportInto(img *wire.SiteImage) {
	st.mu.Lock()
	defer st.mu.Unlock()
	img.Mint = st.mint
	img.Epoch = st.epoch
	img.Frames = wire.FrameStatsImage{
		AcksSent: st.fstats.AcksSent, AcksReceived: st.fstats.AcksReceived,
		FramesRetired: st.fstats.FramesRetired, OutboxResends: st.fstats.OutboxResends,
		ResendsSuppressed: st.fstats.ResendsSuppressed,
	}
	keys := make([]streamKey, 0, len(st.send)+len(st.recv))
	for k := range st.send {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return streamKeyLess(keys[i], keys[j]) })
	for _, k := range keys {
		img.SendStreams = append(img.SendStreams, wire.SendStreamImage{Peer: k.peer, Kind: k.kind, NextSeq: st.send[k]})
	}
	keys = keys[:0]
	for k := range st.recv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return streamKeyLess(keys[i], keys[j]) })
	for _, k := range keys {
		t := st.recv[k]
		ri := wire.RecvStreamImage{Peer: k.peer, Kind: k.kind, Watermark: t.watermark}
		for seq := range t.pending {
			ri.Pending = append(ri.Pending, seq)
		}
		sort.Slice(ri.Pending, func(i, j int) bool { return ri.Pending[i] < ri.Pending[j] })
		img.RecvStreams = append(img.RecvStreams, ri)
	}
}

// exportImageAllLocked renders the site image: the shared state plus
// one ShardState per shard. Caller holds every shard mutex with the
// engines drained.
func (s *Site) exportImageAllLocked() (*wire.SiteImage, error) {
	img := &wire.SiteImage{
		Site:    s.id,
		PlaceRR: s.rr.Load(),
		Shards:  make([]wire.ShardState, s.n),
	}
	s.st.exportInto(img)
	// Every shard sees every FrameAck, so shard 0's view of the peers'
	// epochs stands for the site's.
	epochs := s.shards[0].peerEpoch
	for _, p := range slices.Sorted(maps.Keys(epochs)) {
		img.PeerEpochs = append(img.PeerEpochs, wire.PeerEpochImage{Peer: p, Epoch: epochs[p]})
	}
	for i, r := range s.shards {
		var err error
		if img.Shards[i], err = r.exportShardStateLocked(); err != nil {
			return nil, err
		}
	}
	return img, nil
}
