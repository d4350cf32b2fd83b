package main

import (
	"time"

	"causalgc/internal/wire"
)

// measureTraced is the traced run of one workload. It measures the
// workload untraced first, at the same size, so the difference between
// the two timed parts is the tracing overhead; then it runs it traced,
// runs the layer probes, and reports every per-layer metric: probes,
// traced counts, and the cost attribution that joins the two.
func measureTraced(sp spec, cfg runConfig) (*result, error) {
	quick := cfg
	quick.setups = 1
	plain, err := measure(sp, quick, false)
	if err != nil {
		return nil, err
	}
	res, err := measure(sp, quick, true)
	if err != nil {
		return nil, err
	}
	m := res.Metrics
	if plain.settled > 0 {
		m["causalgc.trace_overhead_pct"] = 100 * (res.settled - plain.settled) / plain.settled
	}
	if !plain.Correct {
		res.Correct = false
		res.Problems = append(res.Problems, "untraced reference run was not correct")
	}
	probes, err := runProbes(cfg.tmpDir)
	if err != nil {
		return nil, err
	}
	for k, v := range probes.metrics {
		m[k] = v
	}
	attribute(res)
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedMetrics turns the differences of the program's counter surfaces
// over the timed part, and the recorded spans, into per-layer metrics.
func (r *run) tracedMetrics(res *result, base, end counts, lat []int64, timed, drain time.Duration) {
	m := res.Metrics
	ops := float64(res.Attempted)
	reclaimed := float64(end.obs.swept - base.obs.swept)
	wall := float64(timed)

	// heap: how often the collector runs and how much of a pass is useful.
	collections := float64(end.obs.collections - base.obs.collections)
	marked := float64(end.obs.marked - base.obs.marked)
	m["heap.collections_per_op"] = ratio(collections, ops)
	m["heap.swept_per_scanned"] = ratio(reclaimed, marked+reclaimed)

	// core: detection work per removal and per reclaimed object.
	eb, ee := base.engine, end.engine
	removed := float64(ee.Removed - eb.Removed)
	resends := float64((ee.AssertResends - eb.AssertResends) + (ee.DestroyResends - eb.DestroyResends) + (ee.LegacyResends - eb.LegacyResends))
	sent := float64((ee.PropagationsSent - eb.PropagationsSent) + (ee.DestroysSent - eb.DestroysSent) +
		(ee.AssertsSent - eb.AssertsSent) + (ee.AssertResends - eb.AssertResends))
	m["core.evaluations_per_removal"] = ratio(float64(ee.Evaluations-eb.Evaluations), removed)
	m["core.props_per_reclaimed_obj"] = ratio(float64(ee.PropagationsSent-eb.PropagationsSent), reclaimed)
	m["core.destroys_per_reclaimed_obj"] = ratio(float64(ee.DestroysSent-eb.DestroysSent), reclaimed)
	m["core.asserts_per_op"] = ratio(float64(ee.AssertsSent-eb.AssertsSent), ops)
	m["core.resend_share"] = ratio(resends, sent)
	m["core.resends_suppressed"] = float64(ee.ResendsSuppressed - eb.ResendsSuppressed)
	m["core.stale_deliveries"] = float64(ee.StaleDeliveries - eb.StaleDeliveries)
	m["core.rows_retired"] = float64(ee.RowsRetired - eb.RowsRetired)

	// persist: zero on every workload without a journal.
	syncs := float64(end.persist.Syncs - base.persist.Syncs)
	m["persist.syncs_per_op"] = ratio(syncs, ops)
	m["persist.fsync_mean_us"] = ratio(float64(end.persist.SyncNanos-base.persist.SyncNanos), syncs) / 1e3
	m["persist.fsync_max_us"] = float64(end.persist.SyncMaxNanos) / 1e3
	m["persist.snapshots"] = float64(end.persist.Snapshots - base.persist.Snapshots)
	m["persist.wal_bytes_per_op"] = 0
	if s, ok := r.wl.(*singletons); ok && s.walTailRecs > 0 {
		m["persist.wal_bytes_per_op"] = float64(s.walTailBytes) / float64(s.walTailRecs)
	}

	// site: acknowledged-retirement traffic and envelope fill.
	fb, fe := base.frames, end.frames
	m["site.acks_sent_per_op"] = ratio(float64(fe.AcksSent-fb.AcksSent), ops)
	m["site.frames_retired"] = float64(fe.FramesRetired - fb.FramesRetired)
	m["site.outbox_evicted"] = float64(fe.OutboxEvicted - fb.OutboxEvicted)
	m["site.outbox_resends"] = float64(fe.OutboxResends - fb.OutboxResends)
	m["site.advances_sent"] = float64(fe.AdvancesSent - fb.AdvancesSent)
	m["site.frames_per_envelope"] = ratio(float64(end.envFrame-base.envFrame), float64(end.envs-base.envs))
	m["site.checkpoint_stall_max_ms"] = r.checkpointStallMs()

	// transport: what crossed the substrate, by kind.
	var tot struct{ sent, delivered, dropped, duplicated, bytes float64 }
	for _, kind := range wireKinds {
		m["transport.sent_"+kind.metric] = 0
	}
	for kind, k := range end.kinds {
		b := base.kinds[kind]
		tot.sent += float64(k.Sent - b.Sent)
		tot.delivered += float64(k.Delivered - b.Delivered)
		tot.dropped += float64(k.Dropped - b.Dropped)
		tot.duplicated += float64(k.Duplicated - b.Duplicated)
		tot.bytes += float64(k.Bytes - b.Bytes)
		for _, wk := range wireKinds {
			if wk.kind == kind {
				m["transport.sent_"+wk.metric] = float64(k.Sent - b.Sent)
			}
		}
	}
	m["transport.sent"] = tot.sent
	m["transport.delivered"] = tot.delivered
	m["transport.dropped"] = tot.dropped
	m["transport.duplicated"] = tot.duplicated
	m["transport.msgs_per_op"] = ratio(tot.sent, ops)
	m["transport.bytes_per_op"] = ratio(tot.bytes, ops)

	// causalgc: the facade, from spans and the allocator's counters.
	m["causalgc.commit_p99_us"] = float64(percentile(lat, 99)) / 1e3
	m["causalgc.commit_max_us"] = float64(percentile(lat, 100)) / 1e3
	m["causalgc.drain_ms"] = float64(drain) / 1e6
	m["causalgc.allocs_per_op"] = ratio(float64(end.mem.Mallocs-base.mem.Mallocs), ops)
	m["causalgc.alloc_bytes_per_op"] = ratio(float64(end.mem.TotalAlloc-base.mem.TotalAlloc), ops)
	m["causalgc.settle_rounds_p50"] = 1
	if cy, ok := r.wl.(*cycles); ok {
		m["causalgc.settle_rounds_p50"] = float64(percentile(sortedCopy(cy.settleRounds), 50))
	}
	tot2 := r.rec.totals()
	commits := tot2[spanCommit]
	m["causalgc.collect_share"] = ratio(float64(tot2[spanCollect].Total), wall)
	m["causalgc.run_share"] = ratio(float64(tot2[spanRun].Total), wall)
	// A commit's self time is its span less the sends it made; the fsync
	// it waited for is taken off too. Site 1's journal also syncs for
	// deliveries, so commits are charged their share of its appends.
	var fsync float64
	if appends := float64(end.site1.Appends - base.site1.Appends); appends > 0 {
		fsync = float64(end.site1.SyncNanos-base.site1.SyncNanos) * min(1, float64(commits.Count)/appends)
	}
	m["causalgc.commit_self_ns"] = ratio(max(float64(commits.Self)-fsync, 0), float64(commits.Count))
	res.State["commit_fsync_ns_mean"] = ratio(fsync, float64(commits.Count))
	res.State["objects_scanned"] = marked + reclaimed
	res.State["scanned_in_commits"] = float64(end.obs.scannedInCommits - base.obs.scannedInCommits)
	res.State["commit_spans"] = float64(commits.Count)
	res.State["send_spans"] = float64(tot2[spanSend].Count)
	res.State["send_spans_in_commits"] = float64(r.rec.children(spanCommit, spanSend))
	res.State["deliver_spans"] = float64(tot2[spanDeliver].Count)
	res.State["commit_span_ns_mean"] = ratio(float64(commits.Total), float64(commits.Count))
	res.State["send_span_ns_mean"] = ratio(float64(tot2[spanSend].Total), float64(tot2[spanSend].Count))
	res.State["deliver_span_ns_mean"] = ratio(float64(tot2[spanDeliver].Total), float64(tot2[spanDeliver].Count))
}

// wireKinds maps the payload kinds of internal/wire to metric suffixes.
var wireKinds = []struct{ kind, metric string }{
	{wire.KindCreate, "create"},
	{wire.KindRef, "ref"},
	{wire.KindEnvelope, "envelope"},
	{wire.KindDestroy, "destroy"},
	{wire.KindPropagate, "prop"},
	{wire.KindAssert, "assert"},
	{wire.KindFrameAck, "frameack"},
	{wire.KindAdvance, "advance"},
}
