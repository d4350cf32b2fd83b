// Package monitor is the observability surface of causalgc: a per-node
// metrics registry (Monitor) that snapshots every statistics surface the
// system already keeps, a bounded structured event trace fed by the
// Observer/AckObserver hooks, and an HTTP server exposing both in
// Prometheus text format and JSON.
//
// A Monitor attaches to one node and reads through closures (Sources),
// so a snapshot always reflects the node's live counters; it also plugs
// into the node's observer slot — composed with any user observer by the
// site-level fanout — to record removals, collections and retirements
// into a fixed-depth ring with sequence numbers and wall-clock stamps.
// Wiring is one option and one server: causalgc.WithMonitor hands a
// Monitor to a Node, and NewServer(addr, mons...) serves a fixed set of
// monitors — one node's, or every node's of a Cluster on one endpoint.
// cmd/causalgc-node serves its sites' monitors that way via
// -metrics-addr. The root package's TestSoak scrapes /metrics
// throughout a fault-injected churn run and asserts the steady-state
// invariants below from two scrapes at quiescence.
//
// # Metrics reference
//
// Every sample carries a site="s<N>" label; causalgc_net_* add
// kind="<payload>" and causalgc_resends_total adds stream=. Sources:
// ENG = engine core.Stats, FRM = site FrameStats, DEP = site Depths
// gauges, COL = accumulated heap.CollectStats, WAL = persist.Stats
// (persistent nodes only), NET = transport Stats, TRC = the monitor's
// own ring.
//
//	causalgc_uptime_seconds            gauge    —    seconds since Attach
//	causalgc_objects                   gauge    heap live heap objects
//	causalgc_clusters_removed_total    counter  ENG  clusters removed as global garbage
//	causalgc_evaluations_total         counter  ENG  GGD closure computations
//	causalgc_propagations_sent_total   counter  ENG  dependency vectors sent
//	causalgc_destroys_sent_total       counter  ENG  edge-destruction messages sent
//	causalgc_asserts_sent_total        counter  ENG  edge-asserts sent
//	causalgc_resends_total{stream}     counter  ENG/FRM refresh re-sends: assert, destroy, outbox
//	causalgc_resends_suppressed_total{layer} counter ENG/FRM re-sends the damper held back
//	causalgc_rows_retired_total        counter  ENG  rows retired by cumulative acks
//	causalgc_hints_expired_total       counter  ENG  introduction hints expired
//	causalgc_stale_deliveries_total    counter  ENG  messages to removed/unknown processes
//	causalgc_acks_sent_total           counter  FRM  FrameAcks sent
//	causalgc_acks_received_total       counter  FRM  FrameAcks received
//	causalgc_frames_retired_total      counter  FRM  outbox frames retired by acks
//	causalgc_deliveries_refused_total  counter  FRM  deliveries dropped unapplied: WAL append failed
//	causalgc_outbox_depth              gauge    DEP  unacknowledged mutator frames retained
//	causalgc_assert_journal_depth      gauge    DEP  un-acknowledged edge-asserts journaled
//	causalgc_destroy_bundles_depth     gauge    DEP  un-acknowledged edge-destruction bundles retained: dropped edges' Ē and removed clusters' finalisation bundles
//	causalgc_pending_deliveries_depth  gauge    DEP  unborn processes: clusters named ahead of their creation (an early transfer's holder included)
//	causalgc_shards                    gauge    DEP  lock-stripe width (1 on a default node)
//	causalgc_shard_outbox_depth{shard} gauge    DEP  per-shard share of causalgc_outbox_depth
//	causalgc_shard_assert_journal_depth{shard} gauge DEP per-shard share of causalgc_assert_journal_depth
//	causalgc_collections_total         counter  COL  mark-sweep collections observed
//	causalgc_collect_marked_total      counter  COL  objects marked, summed
//	causalgc_collect_swept_total       counter  COL  objects reclaimed, summed
//	causalgc_wal_appends_total         counter  WAL  records appended
//	causalgc_wal_syncs_total           counter  WAL  fsyncs issued
//	causalgc_wal_fsync_seconds_total   counter  WAL  total time in fsync
//	causalgc_wal_fsync_max_seconds     gauge    WAL  slowest single fsync
//	causalgc_wal_snapshots_total       counter  WAL  snapshots written
//	causalgc_wal_recovered_records     gauge    WAL  records recovered at open
//	causalgc_wal_discarded_tail_bytes  gauge    WAL  torn tail discarded at open
//	causalgc_net_sent_total{kind}      counter  NET  sends by payload kind
//	causalgc_net_delivered_total{kind} counter  NET  deliveries by payload kind
//	causalgc_net_dropped_total{kind}   counter  NET  losses by payload kind
//	causalgc_net_duplicated_total{kind} counter NET  duplicated deliveries by kind
//	causalgc_net_bytes_total{kind}     counter  NET  approximate payload bytes by kind
//	causalgc_trace_recorded_total      counter  TRC  events ever recorded
//	causalgc_trace_dropped_total       counter  TRC  events overwritten off the ring
//
// Counters restart with the node session they come from (a recovered
// node re-attaches and its ENG/FRM/WAL counters begin again); Prometheus
// rate() handles the resets as usual. The depth gauges are the
// boundedness story: under a steady workload with periodic Refresh,
// every one of them must return to zero at quiescence. Nothing retained
// is ever dropped: a frame, assert or bundle toward a peer that never
// answers stays until the peer acknowledges it, which is what the gauges
// are for. A reference transfer that outruns its holder's creation is
// not buffered: it creates the holder, which shows up in
// causalgc_pending_deliveries_depth until the creation arrives. Every
// node is
// n >= 1 shards, so the shard series are always emitted: a node built
// without WithShards exports causalgc_shards 1 and one shard="0" sample
// per shard-labelled gauge. Sibling shards keep no queue between them —
// a cross-shard frame waiting for its acknowledgement is a row of its
// sender's causalgc_shard_outbox_depth — so there is no handoff gauge,
// and /metrics.json has no "handoff" field.
package monitor
