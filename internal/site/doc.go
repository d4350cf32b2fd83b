// Package site assembles one site of the distributed system: a heap, a
// local collector, a GGD engine and a network endpoint. Site is the
// API surface the public causalgc facade, the examples and the
// simulation harness program against — its methods are the mutator
// operations of the paper's model (§3.1): creating objects locally and
// remotely, copying references across sites (including third-party
// references), and destroying references.
//
// A Site is always a composition of n >= 1 shards (DESIGN.md §3.4):
// each shard owns a partition of the site's clusters — heap rows, engine
// processes, the frames it sent — under its own mutex, which models the paper's
// single mutator/collector interleaving per partition. There is one
// commit path (commitLocked: stage, one journal append, apply — for a
// group of n >= 1 operations; the singleton methods commit groups of
// one and WAL replay feeds journaled groups back through it), one
// recovery (RecoverSharded; Recover and New are its one-shard
// spellings) and one snapshot format, whatever the width. A durable
// site runs one journaled event at a time under its event lock, so its
// journal order is its execution order and apply draws identities,
// placements and stream sequences: replay, applying in journal order,
// draws the same. Site methods are safe for concurrent use.
//
// Beyond the mutator surface the site owns two protocol planes:
//
//   - Durability (persist.go, DESIGN.md §5): with a Persist journal
//     attached, every relevant event is written ahead to a WAL — a
//     mutator commit as one Batch record, an inbound frame as a Deliver
//     record, each shard's part of a Collect or Refresh as an Op
//     marker — and the site image is snapshotted periodically;
//     RecoverSharded reconstructs the site and resumes the protocol.
//     Both hold only what replay must reproduce: no FrameAck is
//     journaled, and no peer epoch, counter or edge count is imaged.
//   - Acknowledged retirement (ack.go, ledger.go, DESIGN.md §3.2): the
//     engine only sends; the site assigns retirement-stream sequences to
//     every re-sendable frame, keeps each frame it sent in its shard's
//     ledger for the frame's stream (mutator frames on a durable site,
//     edge-asserts, edge-destruction bundles), tracks cumulative
//     receive watermarks, emits FrameAck and applies each one it
//     receives once per site, to every shard, and re-ships the
//     damper-due frames on Refresh. A frame leaves only when the peer
//     acknowledges it: nothing is evicted or abandoned, so every receive
//     watermark reaches its sender's last sequence by acks alone, and a
//     peer that never answers shows in the depth gauges (Depths).
//     FrameStats, EngineStats and the optional AckObserver expose the
//     retirement activity.
package site
