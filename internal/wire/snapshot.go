// Snapshot and WAL record types of the durability subsystem: the typed
// layer between the site runtime and the byte-oriented persist.Store.
//
// A SiteImage is what replay must reproduce of one site — identities,
// sequences, heaps, logs, clocks, retained frames, receive watermarks —
// and nothing recovery rebuilds. A WALRecord is one relevant event
// appended between snapshots: a mutator commit (BatchRecord), an
// incoming delivery other than an ack (DeliverRecord) or one shard's
// cycle marker (OpRecord of kind OpCollect or OpRefresh). Replaying the
// records against the image deterministically reconstructs the site
// (see internal/site and DESIGN.md §5).
//
// Encoding lives in codec.go: records and snapshots in the binary format
// the TCP backend's frames use, so an image embeds its retained frames'
// payloads exactly as a transport carries them.

package wire

import (
	"fmt"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
)

// SiteImage is the durable state of one site at a quiescent point: the
// state the shards share at runtime (identity mint, retirement streams,
// recovery epoch, placement cursor) and one ShardState per shard —
// every site is n >= 1 shards (DESIGN.md §3.4).
type SiteImage struct {
	Site ids.SiteID
	// Mint numbers identities created on behalf of other sites.
	Mint uint64
	// Epoch counts this site's recoveries; FrameAcks carry it so peers
	// detect the restart and re-arm their re-send dampers.
	Epoch uint64
	// SendStreams are the per-(peer, stream) sequence counters of the
	// sender side. Losing a counter to a crash would let a recovered
	// site re-use sequences the peer already settled, silently retiring
	// un-delivered state — so they are durable.
	SendStreams []SendStreamImage
	// RecvStreams are the receiver-side cumulative watermarks (plus any
	// out-of-order sequences above them). Losing one would make this
	// site re-acknowledge from zero, never again covering the peer's
	// outstanding rows.
	RecvStreams []RecvStreamImage
	// PlaceRR is the round-robin placement cursor for clusters minted
	// under the root cluster (the shard-spreading policy).
	PlaceRR uint64
	// Shards holds the per-shard state in shard order; shard 0 owns the
	// site's root cluster. Its length is the stripe width, sticky per
	// data directory: recovery always rebuilds the partition the image
	// records.
	Shards []ShardState
}

// ShardState is the durable state owned by one shard.
type ShardState struct {
	Heap   heap.Image
	Engine core.EngineImage
	// Retained holds every tracked frame the shard sent that no
	// cumulative FrameAck covers yet — mutator frames, edge-asserts and
	// edge-destruction bundles, each stream's in its ledger's walk
	// order; each frame's payload type names its stream. Recovery and
	// refresh rounds re-send them until the receiver's ack retires
	// them; receivers apply a mutator frame once by its stream sequence
	// (SiteImage.RecvStreams) and merge the others by stamp.
	Retained []FrameImage
}

// SendStreamImage is one sender-side retirement stream.
type SendStreamImage struct {
	Peer ids.SiteID
	Kind core.Stream
	// NextSeq is the last assigned sequence.
	NextSeq uint64
}

// RecvStreamImage is one receiver-side retirement stream.
type RecvStreamImage struct {
	Peer ids.SiteID
	Kind core.Stream
	// Watermark is the cumulative settled prefix.
	Watermark uint64
	// Pending are settled sequences above the watermark (gaps below them
	// are still outstanding), sorted.
	Pending []uint64
}

// FrameImage is one retained outbound frame: destination site, the
// frame's sequence in its retirement stream to that site, and the
// payload (which carries the same sequence on the wire).
type FrameImage struct {
	To      ids.SiteID
	Payload netsim.Payload
	Seq     uint64
}

// WALRecord is one durable event. Exactly one of Op, Deliver and Batch
// is set, and the three have disjoint meaning.
type WALRecord struct {
	// Op is one shard's cycle marker, journaled right before its part
	// of the cycle: an OpRecord of kind OpCollect or OpRefresh and
	// nothing else (recovery refuses any other kind).
	Op *OpRecord
	// Deliver is one inbound frame (never a FrameAck).
	Deliver *DeliverRecord
	// Batch is a mutator commit: a group of n >= 1 operations committed
	// atomically (DESIGN.md §3.3) — one record, one append, one fsync
	// for the whole group. The singleton mutator methods journal groups
	// of one.
	Batch *BatchRecord
	// Shard tags the record with the shard that journaled it (the
	// executing shard for ops, the destination shard for deliveries).
	// Replay routes by this tag, making recovery independent of the
	// live routing-table state.
	Shard int
	// Width is the stripe width of the site that journaled the record.
	// It makes the width sticky before the first snapshot exists: the
	// fallback cluster routing hashes modulo the width, so replaying a
	// WAL tail at any other width would misroute.
	Width int
}

// BatchRecord is the journaled form of one mutator commit.
// Replay applies the ops in order through the same code path as the
// live commit, resolving deferred references from the results of
// earlier ops of the same batch. The ops carry no draws: replay, in
// journal order, draws the identities the original commit drew.
type BatchRecord struct {
	Ops []BatchOp
}

// BatchOp is one staged mutator operation of a batch. The Op field
// carries the concrete arguments; the *From fields, when non-zero,
// defer an argument to the Ref minted by an earlier create op of the
// same batch (1-based: From==k means the result of batch op k-1), in
// which case the corresponding OpRecord field is ignored. Deferral is
// what lets a batch chain ops onto objects that do not exist until the
// batch commits, without journaling identities that have not been
// minted yet.
type BatchOp struct {
	Op OpRecord
	// HolderFrom defers Op.Holder to an earlier result's object.
	HolderFrom int
	// ToFrom defers Op.To (SendRef destination) to an earlier result.
	ToFrom int
	// TargetFrom defers Op.Target to an earlier result.
	TargetFrom int
}

// OpKind enumerates the journalled operations.
type OpKind uint8

// The journalled operations: the mutator kinds, journaled as the ops
// of a BatchRecord, and the two site-wide cycles, journaled as bare Op
// markers. Collect and Refresh are journaled because both bump engine
// clocks (sweep-triggered edge destructions, removal cascades): every
// clock-advancing entry point must be in the WAL or replay would
// re-issue already-used stamps for new events.
const (
	OpNewLocal OpKind = iota + 1
	OpNewLocalIn
	OpNewCluster
	OpNewRemote
	OpSendRef
	OpAddRef
	OpDropRefs
	OpClearSlot
	OpCollect
	OpRefresh
)

// String names the op kind for diagnostics.
func (k OpKind) String() string {
	switch k {
	case OpNewLocal:
		return "NewLocal"
	case OpNewLocalIn:
		return "NewLocalIn"
	case OpNewCluster:
		return "NewCluster"
	case OpNewRemote:
		return "NewRemote"
	case OpSendRef:
		return "SendRef"
	case OpAddRef:
		return "AddRef"
	case OpDropRefs:
		return "DropRefs"
	case OpClearSlot:
		return "ClearSlot"
	case OpCollect:
		return "Collect"
	case OpRefresh:
		return "Refresh"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// OpRecord is one operation with its arguments: the element of a
// BatchRecord (BatchOp.Op) for the mutator kinds, and on its own —
// Kind alone set — the Collect/Refresh marker of WALRecord.Op, which a
// shard journals right before its own part of the cycle. It records no
// draw: a durable site runs one journaled event at a time, so its
// journal order is its execution order, and apply draws identities,
// placements and stream sequences — replay, applying the records in
// journal order, draws the same values.
type OpRecord struct {
	Kind   OpKind
	Holder ids.ObjectID  // NewLocal, NewLocalIn, NewRemote, SendRef (sender), AddRef, DropRefs, ClearSlot
	Site   ids.SiteID    // NewRemote target site
	Clu    ids.ClusterID // NewLocalIn cluster
	To     heap.Ref      // SendRef destination
	Target heap.Ref      // SendRef, AddRef, DropRefs target
	Slot   int           // ClearSlot index
}

// DeliverRecord is one incoming message delivery.
type DeliverRecord struct {
	From    ids.SiteID
	Payload netsim.Payload
}
