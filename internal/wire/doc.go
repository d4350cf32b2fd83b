// Package wire defines the physical messages exchanged between sites
// and the durable snapshot/WAL record types of the persistence layer.
//
// # Message families
//
// The mutator messages (Create, RefTransfer) carry no vector piggyback
// beyond the single creation stamp: this is the paper's lazy
// log-keeping (§3.4) — reference exchange requires no additional
// control messages, even for third-party references. The GGD messages
// (Destroy, Propagate, Assert) carry at most one dependency vector
// each; Destroy additionally bundles the delayed third-party
// edge-creation entries ("multiple edge-creation control messages can
// be bundled with an edge-destruction control message in one atomic
// delivery", §3.4).
//
// # Retirement streams
//
// Every frame its sender retains for re-send — a durable site's mutator
// frames, edge-asserts, edge-destruction bundles — carries a Seq: its
// position in the sender site's per-(destination, stream) retirement
// stream (DESIGN.md §3.2). The sender keeps the frame itself, exactly
// as it went out, and a re-send ships it again under the same Seq.
// Receivers acknowledge cumulatively with FrameAck once a frame reaches
// a final, replayable disposition, letting the sender retire the
// retained state exactly. A sender retires a row on nothing else, so
// no sequence is abandoned and a watermark never waits on a gap that
// will not fill. FrameAck is GGD-plane traffic: idempotent and
// loss-tolerant.
//
// # Durable images
//
// A SiteImage is what replay must reproduce of one site: the state its
// shards share (identity mint, retirement streams' sequences and
// watermarks, recovery epoch) plus one ShardState per shard, whose
// Retained list holds every frame the shard sent that no FrameAck has
// covered, of all three streams; the payload type names the stream.
// It decodes under one codec version only; there is no migration code.
// WALRecord is one journaled event — a mutator commit (Batch, n >= 1
// ops), an inbound delivery other than a FrameAck (Deliver) or one
// shard's cycle marker (Op: Collect or Refresh) — tagged with the shard
// that journaled it and replayed against the image (DESIGN.md §5).
//
// # Codec
//
// codec.go holds the entry points through which any of the above
// becomes bytes, the addressed Frame of a socket transport included.
// Frames, WAL records and snapshots share one binary codec — a
// codec-version byte, one tag per payload kind, varints — in the format
// binary.go defines; the payload set is closed, so a payload of a type
// this package does not define fails to encode. No product code uses
// gob: tests keep it as the oracle the binary round trip must match.
package wire
