// Package core implements the paper's contribution: comprehensive Global
// Garbage Detection (GGD) by reconstructing the vector times of the
// mutator's log-keeping events (§3).
//
// One Engine runs per site and hosts one process per local cluster (global
// root). The engine is driven by:
//
//   - lazy log-keeping hooks from the heap (EdgeUp/EdgeDown/SentRef, §3.4);
//   - edge-assert control messages (HandleAssertFrame) — see below;
//   - edge-destruction control messages (HandleDestroyFrame, §3.1);
//   - dependency-vector propagations (HandlePropagate, §3.3 step 3);
//   - explicit refresh rounds (Refresh), the §5 recovery mechanism;
//   - cumulative frame acknowledgements relayed by the site runtime
//     (Ack — DESIGN.md §3.2), which retire rows of the engine's two
//     Ledgers (ack.go): the assert journal and the edge-destruction
//     bundles (finalisation bundles included) are one retained-row type,
//     as is the site runtime's outbox. Each row carries what it re-ships
//     under the sequence its first send drew and leaves only when
//     acknowledged, so no stream sequence is ever abandoned; a destroyed
//     edge's Ē bundle outlives the edge's re-formation and its holder's
//     removal.
//
// # Log-keeping and gossip
//
// A delivery changes a log in one place, merge, which never sends.
// Sending has five homes: evaluate (the verdict — remove, or propagate
// when the log changed), propagate (one payload, shared by every
// out-edge and the local inbox), destroyEdge (one Ē, for a dropped edge
// and a removal's finalisation alike), sendJournaledAssert, and
// Refresh's ledger walks; a refresh round runs the same evaluate as a
// delivery. A payload is immutable once built, merged by value and
// never retained, so one value serves every recipient and the destroy
// ledger (DESIGN.md §3).
//
// # A process exists from its first mention
//
// Control frames and creation messages travel different channels, so a
// frame may name an owned cluster before the cluster's Create arrives.
// There is no waiting room for it: the engine creates the process unborn
// and merges the frame at once — every merge is idempotent and
// order-insensitive, so it commutes with the creation's. An unborn
// process is never evaluated (it can be neither removed nor made to
// propagate while the site has no heap shell for it); Register marks it
// born and queues the one evaluation it is owed (DESIGN.md §3.2).
//
// # Realisation of the paper's Fig 6
//
// The scanned pseudo-code is OCR-lossy; this implementation follows the
// reconstruction documented in DESIGN.md §2. Stamps are edge-keyed: the
// value in column q of a process's own vector concerns exactly the edge
// q→process and lives in q's clock space, so merges are totally ordered
// per edge and the logs converge monotonically.
//
// # The introduction race and edge-asserts
//
// The paper's sender-side third-party entries (DV_i[k][j]++, §3.4) are
// counters in the *sender's* number space, while destruction stamps Ē are
// in the *edge source's* clock space. Merging them by magnitude — as the
// paper's max-merge does — lets an old Ē mask a newer in-flight
// introduction of the same edge: process j drops its last reference to k
// (Ē shipped), a third party's forwarded reference re-creates the edge
// j→k, and k, having merged the bigger Ē over the small count, removes
// itself while j holds a live reference. Randomised stress tests readily
// find this race (demonstrated by the A2 ablation experiment).
//
// This implementation therefore keeps the two kinds of knowledge apart:
//
//   - Authoritative stamps: only the edge's source writes them (creation
//     on acquisition, Ē on destruction), totally ordered per edge.
//   - Introduction hints (col, introducer, forwarding-seq): conservative
//     liveness recorded from bundles and gossip; a pending hint blocks a
//     garbage verdict.
//
// A hint is resolved by the source's word issued causally after the
// forwarded reference arrived: the source sends one small idempotent
// edge-assert when it first acquires the reference, and its destruction
// bundles carry the introductions it has processed. Asserts are deferred,
// idempotent, loss-tolerant GGD-plane messages — the mutator's exchange
// itself still carries no synchronous control traffic, preserving the
// substance of the paper's lazy log-keeping claim (the assert count is
// reported separately by every benchmark).
//
// # Hint resolution is guaranteed, not best-effort
//
// A pending hint blocks a garbage verdict, so an introduction that is
// never resolved pins its owner forever — the one leak the engine used
// to tolerate. Three mechanisms close it:
//
//   - Assert re-send: every edge-assert is journaled per (holder,
//     target, introducer, forwarding-seq) until the owner's site
//     acknowledges its frame (cumulative FrameAck, DESIGN.md §3.2);
//     Refresh re-ships the journal alongside the destroyed-edge bundles,
//     under the exponential re-send damper. Loss of an assert (or of
//     its ack) costs refresh rounds, never the resolution.
//   - Hint expiry: a forwarding whose reference was delivered and
//     discarded without an edge ever forming — the holder object
//     already collected, its cluster tombstoned — can never be consumed
//     by the source's word. The receiving site expires it at the owner
//     with a stampless negative assert for exactly that (introducer,
//     forwarding-seq), journaled and re-sent like any other
//     (ResolveIntroduction). Expiry is causally safe: the negative
//     assert is issued after the delivery that proves no edge resulted,
//     and a fresher forwarding carries a higher seq that the expiry
//     bound does not cover.
//   - Retained finalisation bundles: the destroy bundles a removed
//     process sends carry the processed-introduction records that
//     resolve its hints, but the process is gone — nothing could
//     rebuild a lost bundle. Removal therefore retains them in the
//     destroy ledger like any Ē (acknowledged retirement) and Refresh
//     re-sends the un-acknowledged remainder.
//
// Detection then proceeds exactly as in §3.6: GGD work starts when an
// edge-destruction message arrives, first-hand vectors circulate along
// the edges of the global root graph (with row gossip) until the logs
// reach a fixpoint, and garbage removal cascades through finalisation
// destroys — collecting distributed cycles without any global consensus.
package core
