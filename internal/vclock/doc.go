// Package vclock implements the timestamp machinery of the paper:
// per-process event stamps, sparse dependency vectors (DDVs), the Ē
// ("epsilon") destruction stamps of §3.1–§3.2, the Λ predicate, vector
// merging (the join of the Schwarz–Mattern partial order), and the
// two-dimensional per-root logs (DV_i) of §3.3 with the merge operations
// used by the GGD Receive/ComputeV procedures.
//
// # Stamp spaces
//
// Every global root (cluster) numbers its log-keeping events with a
// monotonically increasing counter. A stamp in column q of any vector
// is, conceptually, an event index of process q. Lazy log-keeping
// (§3.4) lets senders record conservative lower bounds ("counts") in
// columns they do not own; receivers re-stamp columns they own with
// their real clock, which is what makes destruction stamps Ē(clock)
// supersede every creation stamp of the edges they cancel (see
// DESIGN.md §2).
//
// # The pieces
//
//   - Stamp: one edge-keyed record — a sequence in the source's clock
//     space plus the Ē bit — with the one merge operator of DESIGN.md
//     interpretation #3: Merge supersedes within an edge. Across paths
//     nothing merges; the closure walks, so a live path wins.
//   - Vector: a sparse column map of stamps with per-entry merging.
//   - HintSet: the pending introduction hints and their sequence-bounded
//     resolution records (Clear/Expire), the soundness repair for the
//     paper's raw sender-side counts (DESIGN.md §2, §3.1). The recorded
//     bound is what suppresses stale gossip re-arms, so hint resolution
//     survives reordering and duplication without re-send.
//   - Log: one process's two-dimensional log — its own first-hand
//     vector and hints, relayed rows of other processes (with the
//     Confirmed flag of interpretation #4), and the lazily created
//     on-behalf rows — plus the Closure walk behind the removal guard.
//
// Everything here is single-threaded by design; the site runtime
// serialises access, and LogImage/Export/RestoreLog provide the durable
// image round-trip used by the persistence subsystem.
package vclock
