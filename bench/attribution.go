package main

import (
	"fmt"
	"io"
)

// costRow is one line of the cost-attribution table: where the mean
// commit's nanoseconds go, built from probes × traced counts.
type costRow struct {
	Layer string  `json:"layer"`
	What  string  `json:"what"`
	Ns    float64 `json:"ns"`
}

// attribute joins the layer probes with the traced counts of a run: it
// explains the mean commit as a sum of per-layer costs and reports, as
// causalgc.attribution_coverage, how much of the measured commit self
// time (span less sends and fsync) the probes account for.
func attribute(res *result) {
	m, st := res.Metrics, res.State
	// Two whole-run shares, probes × counts over the timed wall time, for
	// the question "do the workloads separate the layers": local
	// collection, and the socket path (codec included) of the workloads
	// that run over tcp. Estimates: the work overlaps on two cores.
	timedNs := st["timed_ms"] * 1e6
	st["share_heap_collect"] = ratio(st["objects_scanned"]*m["heap.collect_ns_per_obj"], timedNs)
	st["share_wire_tcp"] = 0
	if res.Workload == "durable-tcp" || res.Workload == "tcp-frames" {
		st["share_wire_tcp"] = ratio(m["transport.sent"]*1e9/m["tcp.frames_per_s"], timedNs)
	}
	commits := st["commit_spans"]
	if commits == 0 {
		return
	}
	opsPerCommit := st["ops_in_commits"] / commits
	durable := m["persist.syncs_per_op"] > 0

	// Inside the commit's self time.
	var apply float64
	switch res.Workload {
	case "inmem-batch":
		apply = m["site.sharded_applybatch64_ns_per_op"] * opsPerCommit
	default:
		apply = m["site.singleton_ns"] * opsPerCommit
	}
	// The site probes run on an empty heap; a collection's cost grows
	// with the objects it visits, counted for the collections that ran
	// inside commit spans.
	collect := ratio(st["scanned_in_commits"], commits) * m["heap.collect_ns_per_obj"]
	var encode, appendNs, fsync float64
	if durable {
		encode = m["wire.encode_op_ns"]
		appendNs = m["persist.append_nosync_ns"]
		fsync = st["commit_fsync_ns_mean"]
	}
	sends := ratio(st["send_span_ns_mean"]*st["send_spans_in_commits"], commits)

	res.Attribution = []costRow{
		{"persist", "fsync waited for by the commit", fsync},
		{"persist", "WAL append without the sync (probe)", appendNs},
		{"wire", "WAL record encode (probe)", encode},
		{"transport", "Send calls under the commit (spans)", sends},
		{"site", "stage, journal hand-off, apply on an empty heap (probe)", apply},
		{"heap", "objects visited by collections inside the commit × collect_ns_per_obj (probe × count)", collect},
	}
	explained := apply + collect + encode + appendNs
	m["causalgc.attribution_coverage"] = ratio(explained, m["causalgc.commit_self_ns"])
	total := explained + fsync + sends
	res.Attribution = append(res.Attribution,
		costRow{"causalgc", "measured mean commit (span)", st["commit_span_ns_mean"]},
		costRow{"causalgc", "not explained by the rows above", st["commit_span_ns_mean"] - total},
	)
}

func printAttribution(w io.Writer, res *result) {
	if len(res.Attribution) == 0 {
		return
	}
	fmt.Fprintf(w, "  where a %s commit's time goes (mean, ns):\n", res.Workload)
	for _, row := range res.Attribution {
		fmt.Fprintf(w, "    %-10s %12.0f  %s\n", row.Layer, row.Ns, row.What)
	}
}
