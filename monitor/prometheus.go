package monitor

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"causalgc/internal/site"
)

// WriteExposition renders snapshots in the Prometheus text exposition
// format (version 0.0.4), one site-labelled sample per snapshot per
// metric. Metrics whose source surface is absent from every snapshot
// (persist counters on volatile nodes, net counters on a transport
// without stats) are omitted entirely. See the package documentation
// for the metrics reference.
func WriteExposition(w io.Writer, snaps ...Snapshot) error {
	p := &promWriter{w: w}

	p.gauge("causalgc_uptime_seconds", "Seconds since the monitor attached to the node.",
		snaps, func(s *Snapshot) float64 { return s.UptimeSeconds })
	p.igauge("causalgc_objects", "Live heap objects, root object included.",
		snaps, func(s *Snapshot) int { return s.Objects })

	p.counter("causalgc_clusters_removed_total", "Clusters detected as global garbage and removed.",
		snaps, func(s *Snapshot) int { return s.Engine.Removed })
	p.counter("causalgc_evaluations_total", "GGD closure computations.",
		snaps, func(s *Snapshot) int { return s.Engine.Evaluations })
	p.counter("causalgc_propagations_sent_total", "Dependency vectors sent.",
		snaps, func(s *Snapshot) int { return s.Engine.PropagationsSent })
	p.counter("causalgc_destroys_sent_total", "Edge-destruction messages sent, re-sends included.",
		snaps, func(s *Snapshot) int { return s.Engine.DestroysSent })
	p.counter("causalgc_asserts_sent_total", "Edge-assert messages sent, negative asserts included.",
		snaps, func(s *Snapshot) int { return s.Engine.AssertsSent })
	p.head("causalgc_resends_total", "counter", "Refresh re-sends by retained-state stream.")
	for i := range snaps {
		s := &snaps[i]
		p.sample("causalgc_resends_total", s, `stream="assert"`, float64(s.Engine.AssertResends))
		p.sample("causalgc_resends_total", s, `stream="destroy"`, float64(s.Engine.DestroyResends))
		p.sample("causalgc_resends_total", s, `stream="outbox"`, float64(s.Frames.OutboxResends))
	}
	p.head("causalgc_resends_suppressed_total", "counter", "Re-sends the exponential damper held back.")
	for i := range snaps {
		s := &snaps[i]
		p.sample("causalgc_resends_suppressed_total", s, `layer="engine"`, float64(s.Engine.ResendsSuppressed))
		p.sample("causalgc_resends_suppressed_total", s, `layer="outbox"`, float64(s.Frames.ResendsSuppressed))
	}
	p.counter("causalgc_rows_retired_total", "Engine rows retired by cumulative frame acknowledgements.",
		snaps, func(s *Snapshot) int { return s.Engine.RowsRetired })
	p.counter("causalgc_hints_expired_total", "Introduction hints expired as provably stale.",
		snaps, func(s *Snapshot) int { return s.Engine.HintsExpired })
	p.counter("causalgc_stale_deliveries_total", "Messages addressed to removed or unknown processes.",
		snaps, func(s *Snapshot) int { return s.Engine.StaleDeliveries })

	p.counter("causalgc_acks_sent_total", "Cumulative FrameAcks sent.",
		snaps, func(s *Snapshot) int { return s.Frames.AcksSent })
	p.counter("causalgc_acks_received_total", "Cumulative FrameAcks received.",
		snaps, func(s *Snapshot) int { return s.Frames.AcksReceived })
	p.counter("causalgc_frames_retired_total", "Outbox frames retired by cumulative acknowledgements.",
		snaps, func(s *Snapshot) int { return s.Frames.FramesRetired })
	p.counter("causalgc_deliveries_refused_total", "Deliveries dropped unapplied because their write-ahead append failed.",
		snaps, func(s *Snapshot) int { return s.Frames.DeliveriesRefused })

	p.igauge("causalgc_outbox_depth", "Unacknowledged outbound mutator frames retained.",
		snaps, func(s *Snapshot) int { return s.Depths.Outbox })
	p.igauge("causalgc_assert_journal_depth", "Un-acknowledged edge-asserts journaled for re-send.",
		snaps, func(s *Snapshot) int { return s.Depths.AssertRows })
	p.igauge("causalgc_destroy_bundles_depth", "Un-acknowledged edge-destruction bundles (finalisation bundles included) retained for re-send.",
		snaps, func(s *Snapshot) int { return s.Depths.DestroyRows })
	p.igauge("causalgc_pending_deliveries_depth", "Unborn processes: clusters that control messages or reference transfers named ahead of their creation message.",
		snaps, func(s *Snapshot) int { return s.Depths.PendingDeliveries })

	if anyShards(snaps) {
		p.head("causalgc_shards", "gauge", "Lock-stripe width of the site (1 by default).")
		for i := range snaps {
			if s := &snaps[i]; s.Shards > 0 {
				p.sample("causalgc_shards", s, "", float64(s.Shards))
			}
		}
		p.head("causalgc_shard_outbox_depth", "gauge", "Per-shard unacknowledged outbound mutator frames.")
		p.shardDepth(snaps, "causalgc_shard_outbox_depth", func(d site.Depths) int { return d.Outbox })
		p.head("causalgc_shard_assert_journal_depth", "gauge", "Per-shard un-acknowledged edge-assert journal size.")
		p.shardDepth(snaps, "causalgc_shard_assert_journal_depth", func(d site.Depths) int { return d.AssertRows })
	}

	p.counter("causalgc_collections_total", "Local mark-sweep collections observed.",
		snaps, func(s *Snapshot) int { return s.Collect.Collections })
	p.counter("causalgc_collect_marked_total", "Objects found reachable, summed over collections.",
		snaps, func(s *Snapshot) int { return s.Collect.Marked })
	p.counter("causalgc_collect_swept_total", "Objects reclaimed, summed over collections.",
		snaps, func(s *Snapshot) int { return s.Collect.Swept })

	if anyPersist(snaps) {
		p.head("causalgc_wal_appends_total", "counter", "WAL records appended this session.")
		p.persist(snaps, "causalgc_wal_appends_total", func(s *Snapshot) float64 { return float64(s.Persist.Appends) })
		p.head("causalgc_wal_syncs_total", "counter", "WAL fsyncs this session.")
		p.persist(snaps, "causalgc_wal_syncs_total", func(s *Snapshot) float64 { return float64(s.Persist.Syncs) })
		p.head("causalgc_wal_fsync_seconds_total", "counter", "Total wall-clock seconds spent in WAL fsyncs.")
		p.persist(snaps, "causalgc_wal_fsync_seconds_total", func(s *Snapshot) float64 { return float64(s.Persist.SyncNanos) / 1e9 })
		p.head("causalgc_wal_fsync_max_seconds", "gauge", "Slowest single WAL fsync of the session.")
		p.persist(snaps, "causalgc_wal_fsync_max_seconds", func(s *Snapshot) float64 { return float64(s.Persist.SyncMaxNanos) / 1e9 })
		p.head("causalgc_wal_snapshots_total", "counter", "Durable snapshots written this session.")
		p.persist(snaps, "causalgc_wal_snapshots_total", func(s *Snapshot) float64 { return float64(s.Persist.Snapshots) })
		p.head("causalgc_wal_recovered_records", "gauge", "WAL records recovered at open.")
		p.persist(snaps, "causalgc_wal_recovered_records", func(s *Snapshot) float64 { return float64(s.Persist.RecoveredRecords) })
		p.head("causalgc_wal_discarded_tail_bytes", "gauge", "Torn tail bytes discarded at open.")
		p.persist(snaps, "causalgc_wal_discarded_tail_bytes", func(s *Snapshot) float64 { return float64(s.Persist.DiscardedTailBytes) })
	}

	if anyTransport(snaps) {
		p.net(snaps, "causalgc_net_sent_total", "Transport sends by payload kind.",
			func(k kindView) int { return k.Sent })
		p.net(snaps, "causalgc_net_delivered_total", "Transport deliveries by payload kind.",
			func(k kindView) int { return k.Delivered })
		p.net(snaps, "causalgc_net_dropped_total", "Transport losses by payload kind.",
			func(k kindView) int { return k.Dropped })
		p.net(snaps, "causalgc_net_duplicated_total", "Transport duplicated deliveries by payload kind.",
			func(k kindView) int { return k.Duplicated })
		p.net(snaps, "causalgc_net_bytes_total", "Approximate transport payload bytes by kind.",
			func(k kindView) int { return k.Bytes })
	}

	p.counter("causalgc_trace_recorded_total", "Structured trace events recorded.",
		snaps, func(s *Snapshot) int { return int(s.Trace.Recorded) })
	p.counter("causalgc_trace_dropped_total", "Trace events overwritten off the bounded ring.",
		snaps, func(s *Snapshot) int { return int(s.Trace.Dropped) })

	return p.err
}

// kindView is the per-kind transport counters as seen by the exposition
// writer (a copy of netsim.KindStats without the import in signatures).
type kindView struct {
	Sent, Delivered, Dropped, Duplicated, Bytes int
}

// promWriter accumulates the first write error so WriteExposition reads
// linearly.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// head writes the HELP and TYPE lines of one metric (exactly once per
// exposition, as the format requires).
func (p *promWriter) head(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one site-labelled sample line, merging extra labels.
func (p *promWriter) sample(name string, s *Snapshot, labels string, v float64) {
	site := `site="` + s.Site.String() + `"`
	if labels != "" {
		site += "," + labels
	}
	p.printf("%s{%s} %s\n", name, site, strconv.FormatFloat(v, 'g', -1, 64))
}

// counter writes one int-valued counter across all snapshots.
func (p *promWriter) counter(name, help string, snaps []Snapshot, get func(*Snapshot) int) {
	p.head(name, "counter", help)
	for i := range snaps {
		p.sample(name, &snaps[i], "", float64(get(&snaps[i])))
	}
}

// igauge writes one int-valued gauge across all snapshots.
func (p *promWriter) igauge(name, help string, snaps []Snapshot, get func(*Snapshot) int) {
	p.head(name, "gauge", help)
	for i := range snaps {
		p.sample(name, &snaps[i], "", float64(get(&snaps[i])))
	}
}

// gauge writes one float-valued gauge across all snapshots.
func (p *promWriter) gauge(name, help string, snaps []Snapshot, get func(*Snapshot) float64) {
	p.head(name, "gauge", help)
	for i := range snaps {
		p.sample(name, &snaps[i], "", get(&snaps[i]))
	}
}

// persist writes one persist-sourced sample per snapshot that has a
// store.
func (p *promWriter) persist(snaps []Snapshot, name string, get func(*Snapshot) float64) {
	for i := range snaps {
		if s := &snaps[i]; s.Persist != nil {
			p.sample(name, s, "", get(s))
		}
	}
}

// net writes one transport counter across all snapshots, kind-labelled
// and deterministically ordered.
func (p *promWriter) net(snaps []Snapshot, name, help string, get func(kindView) int) {
	p.head(name, "counter", help)
	for i := range snaps {
		s := &snaps[i]
		kinds := make([]string, 0, len(s.Transport))
		for k := range s.Transport {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			ks := s.Transport[k]
			p.sample(name, s, `kind="`+k+`"`, float64(get(kindView{
				Sent: ks.Sent, Delivered: ks.Delivered, Dropped: ks.Dropped,
				Duplicated: ks.Duplicated, Bytes: ks.Bytes,
			})))
		}
	}
}

// shardDepth writes one shard-labelled depth sample per shard of every
// snapshot (shard="0" alone on a default node).
func (p *promWriter) shardDepth(snaps []Snapshot, name string, get func(site.Depths) int) {
	for i := range snaps {
		s := &snaps[i]
		for shard, d := range s.ShardDepths {
			p.sample(name, s, `shard="`+strconv.Itoa(shard)+`"`, float64(get(d)))
		}
	}
}

func anyShards(snaps []Snapshot) bool {
	for i := range snaps {
		if snaps[i].Shards > 0 {
			return true
		}
	}
	return false
}

func anyPersist(snaps []Snapshot) bool {
	for i := range snaps {
		if snaps[i].Persist != nil {
			return true
		}
	}
	return false
}

func anyTransport(snaps []Snapshot) bool {
	for i := range snaps {
		if snaps[i].Transport != nil {
			return true
		}
	}
	return false
}
