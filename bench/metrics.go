package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// defaultSeconds is the length of one run's timed part, in seconds at
// the calibration commit; BENCHMARK.json's run_seconds repeats it.
const defaultSeconds = 10

// metricDef names one metric the benchmark prints.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline's median by which the metric
	// may worsen before the comparator calls a regression. End-to-end
	// metrics carry it into BENCHMARK.json; per-layer metrics have none
	// there, and the comparator reports theirs only when it is set.
	bound float64
	// exact metrics are counts that repeat bit for bit for a fixed seed
	// on the deterministic workloads; the comparator demands equality
	// there.
	exact bool
	layer bool // per-layer (traced run) rather than end-to-end
	// samples names the sample count printed beside a percentile.
	samples string
}

// metricTable is the one list of metric names; BENCHMARK.json is
// generated from it (-manifest) and a test keeps the two equal.
var metricTable = append(endToEnd, perLayer...)

// The bounds are set from the spreads measured on the 2-core box that
// defined the benchmark (README.md, "Steadiness"): each is at least
// three times the widest run-to-run quartile distance seen on any
// workload, ten seeds each, where the 25 % BENCHMARK.json may carry
// allows it. The widest ones are not the clock's but the seed's: the
// randomised churn-faults workload does different work for every seed.
// On the deterministic workloads the comparator demands exact equality
// of the counts instead.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "settled_ops_per_s", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "commit_p50_us", unit: "us", better: "lower", bound: 0.25, samples: "commit"},
	{name: "reclaim_p50_us", unit: "us", better: "lower", bound: 0.25, samples: "reclaim"},
	{name: "msgs_per_reclaimed_obj", unit: "msgs", better: "lower", bound: 0.10, exact: true},
	{name: "bytes_per_reclaimed_obj", unit: "B", better: "lower", bound: 0.25, exact: true},
	{name: "heap_mb_settled", unit: "MiB", better: "lower", bound: 0.10},
}

var perLayer = layerDefs(
	// Measured by one workload only; listed here because BENCHMARK.json
	// wants every end-to-end metric from every workload. The comparator
	// still applies the bounds below.
	metricDef{name: "site.recover_ms", unit: "ms", better: "lower", bound: 0.25},
	metricDef{name: "core.converge_rounds", unit: "rounds", better: "lower", exact: true},
	// Throughput of the last quarter of the operations over the first
	// quarter (1.0 = history-free). A ratio of two short timings: its
	// run-to-run spread (up to 30 % on churn-faults) is wider than any
	// bound worth setting.
	higher("causalgc.drift_ratio", "ratio"),
	// The end-to-end timings as the clock read them, before they are put
	// at reference speed (pace.go), and the mean burst over its nominal
	// time: above 1, the machine ran slower than the reference.
	lower("causalgc.raw_setup_s", "s"),
	higher("causalgc.raw_settled_ops_per_s", "ops/s"),
	lower("causalgc.raw_commit_p50_us", "us"),
	lower("causalgc.raw_reclaim_p50_us", "us"),
	lower("causalgc.speed_index", "ratio"),
	// The tails. On the box that defined the benchmark the p90s spread by
	// up to 14 % (reclaim, durable-tcp) and 32 % (commit, churn-faults)
	// between runs, which a bound BENCHMARK.json may carry would not
	// cover three times over, so like p99 and max they are listed here
	// until shown to repeat.
	metricDef{name: "causalgc.commit_p90_us", unit: "us", better: "lower", layer: true, samples: "commit"},
	metricDef{name: "causalgc.reclaim_p90_us", unit: "us", better: "lower", layer: true, samples: "reclaim"},

	// heap: probes, then traced counts.
	lower("heap.collect_ns_per_obj", "ns/obj"),
	lower("heap.dropref_ns_1", "ns"),
	lower("heap.dropref_ns_256", "ns"),
	lower("heap.dropref_ns_4096", "ns"),
	lower("heap.addref_ns", "ns"),
	lower("heap.newobject_ns", "ns"),
	lower("heap.export_ns_per_obj", "ns/obj"),
	lower("heap.collections_per_op", "1/op"),
	higher("heap.swept_per_scanned", "ratio"),

	lower("vclock.mergeall_ns", "ns"),
	lower("vclock.clone_ns", "ns"),
	lower("vclock.closure_ns", "ns"),
	lower("vclock.closure_allocs", "allocs"),
	lower("vclock.mergevrow_ns", "ns"),

	lower("core.edgeup_ns", "ns"),
	lower("core.edgedown_ns", "ns"),
	lower("core.propagate_ns_per_msg", "ns/msg"),
	lower("core.refresh_ns_per_process", "ns"),
	lower("core.ackdestroys_ns_1k", "ns"),
	lower("core.ackdestroys_ns_100k", "ns"),
	lower("core.evaluations_per_removal", "ratio"),
	lower("core.props_per_reclaimed_obj", "msgs"),
	lower("core.destroys_per_reclaimed_obj", "msgs"),
	lower("core.asserts_per_op", "1/op"),
	lower("core.resend_share", "ratio"),
	lower("core.resends_suppressed", "count"),
	lower("core.stale_deliveries", "count"),
	higher("core.rows_retired", "count"),

	lower("wire.encode_op_ns", "ns"),
	lower("wire.decode_op_ns", "ns"),
	lower("wire.op_bytes", "B"),
	lower("wire.encode_op_allocs", "allocs"),
	lower("wire.decode_op_allocs", "allocs"),
	lower("wire.encode_batch64_ns", "ns"),
	lower("wire.decode_batch64_ns", "ns"),
	lower("wire.batch64_bytes", "B"),
	lower("wire.encode_batch64_allocs", "allocs"),
	lower("wire.decode_batch64_allocs", "allocs"),
	lower("wire.encode_deliver_ns", "ns"),
	lower("wire.decode_deliver_ns", "ns"),
	lower("wire.deliver_bytes", "B"),
	lower("wire.encode_deliver_allocs", "allocs"),
	lower("wire.decode_deliver_allocs", "allocs"),
	lower("wire.encode_snapshot_ns_per_obj", "ns/obj"),
	lower("wire.decode_snapshot_ns_per_obj", "ns/obj"),
	lower("wire.snapshot_bytes_per_obj", "B/obj"),
	lower("wire.encode_snapshot_allocs_per_obj", "allocs/obj"),
	lower("wire.decode_snapshot_allocs_per_obj", "allocs/obj"),

	lower("persist.append_nosync_ns", "ns"),
	lower("persist.append_fsync_ns", "ns"),
	lower("persist.append_group1ms_ns", "ns"),
	lower("persist.snapshot_write_ms", "ms"),
	lower("persist.open_ms_per_10k", "ms"),
	lower("persist.syncs_per_op", "1/op"),
	lower("persist.fsync_mean_us", "us"),
	lower("persist.fsync_max_us", "us"),
	lower("persist.wal_bytes_per_op", "B"),
	lower("persist.snapshots", "count"),

	lower("site.applybatch64_ns_per_op", "ns"),
	lower("site.singleton_ns", "ns"),
	lower("site.sharded_applybatch64_ns_per_op", "ns"),
	lower("site.deliver_ns", "ns"),
	lower("site.recover_ms_per_10k", "ms"),
	lower("site.acks_sent_per_op", "1/op"),
	higher("site.frames_retired", "count"),
	lower("site.outbox_evicted", "count"),
	lower("site.outbox_resends", "count"),
	lower("site.advances_sent", "count"),
	higher("site.frames_per_envelope", "ratio"),
	lower("site.checkpoint_stall_max_ms", "ms"),

	lower("transport.async_send_to_deliver_us", "us"),
	lower("transport.sent", "msgs"),
	lower("transport.delivered", "msgs"),
	lower("transport.dropped", "msgs"),
	lower("transport.duplicated", "msgs"),
	lower("transport.sent_create", "msgs"),
	lower("transport.sent_ref", "msgs"),
	lower("transport.sent_envelope", "msgs"),
	lower("transport.sent_destroy", "msgs"),
	lower("transport.sent_prop", "msgs"),
	lower("transport.sent_assert", "msgs"),
	lower("transport.sent_frameack", "msgs"),
	lower("transport.sent_advance", "msgs"),
	lower("transport.msgs_per_op", "msgs"),
	lower("transport.bytes_per_op", "B"),

	lower("tcp.roundtrip_p50_us", "us"),
	higher("tcp.frames_per_s", "1/s"),
	lower("tcp.socket_bytes_per_frame", "B"),

	lower("monitor.snapshot_us", "us"),
	lower("monitor.event_ns", "ns"),

	lower("causalgc.commit_self_ns", "ns"),
	lower("causalgc.commit_p99_us", "us"),
	lower("causalgc.commit_max_us", "us"),
	lower("causalgc.collect_share", "ratio"),
	lower("causalgc.run_share", "ratio"),
	lower("causalgc.drain_ms", "ms"),
	lower("causalgc.allocs_per_op", "allocs"),
	lower("causalgc.alloc_bytes_per_op", "B"),
	lower("causalgc.settle_rounds_p50", "rounds"),
	lower("causalgc.trace_overhead_pct", "%"),
	higher("causalgc.attribution_coverage", "ratio"),

	// Informational: the comparison collectors on the cycle-reclaim
	// structures. Counts on the seeded simulator.
	lower("baseline.schelvis_msgs_per_obj", "msgs"),
	lower("baseline.tracing_msgs_per_obj", "msgs"),
	lower("baseline.wrc_msgs_per_obj", "msgs"),
	higher("baseline.wrc_reclaimed_share", "ratio"),
)

func lower(name, unit string) metricDef  { return metricDef{name: name, unit: unit, better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "higher"} }

func layerDefs(defs ...metricDef) []metricDef {
	for i := range defs {
		defs[i].layer = true
	}
	return defs
}

// deterministic names the workloads whose counts repeat exactly for a
// fixed seed (single-threaded driver on the seeded simulator).
var deterministic = map[string]bool{"cycle-reclaim": true, "churn-faults": true}

// machine is the header every result file and printout repeats.
type machine struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

func thisMachine() machine {
	m := machine{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: "unknown",
	}
	// The driver's checkout is not a git repository; the commit is then
	// unknown, which the header says rather than guesses.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

func printMachine(w io.Writer) {
	m := thisMachine()
	fmt.Fprintf(w, "machine: cores=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		m.Cores, m.GOMAXPROCS, m.GoVersion, m.OS, m.Arch, m.Commit)
}

// manifest renders BENCHMARK.json as the tables above define it.
func manifest() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, s := range specs {
		doc.Workloads = append(doc.Workloads, workloadJSON{s.name, s.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func printManifest() int {
	data, err := manifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	os.Stdout.Write(data)
	return 0
}
