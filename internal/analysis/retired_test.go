package analysis_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// retiredSelf is this file, whose patterns would otherwise match their
// own source.
const retiredSelf = "internal/analysis/retired_test.go"

// File scopes of the retired-name rows, on module-relative paths.
func outsideBench(rel string) bool { return !strings.HasPrefix(rel, "bench/") }
func nonTest(rel string) bool      { return !strings.HasSuffix(rel, "_test.go") }
func everyFile(string) bool        { return true }
func rootPackage(rel string) bool  { return !strings.Contains(rel, "/") }

// nameRow is one row of the retired and frozen tables: a rule, a
// use-site pattern searched line by line in the .go files the scope
// accepts, and the message a match reports.
type nameRow struct {
	rule    string
	pattern *regexp.Regexp
	scope   func(rel string) bool
	message string
}

// retired lists the names a change deleted on purpose and that must not
// come back. Each row is named after the change that retired it; its
// pattern is searched line by line in the .go files its scope accepts.
// bench/ is its own module, frozen with the benchmark, and most rows
// leave it out.
var retired = []nameRow{
	{"one codec per value", regexp.MustCompile(`"encoding/gob"`),
		func(rel string) bool { return nonTest(rel) && rel != "internal/wire/codec.go" },
		"encoding/gob is imported by internal/wire/codec.go only, for snapshots"},
	{"one codec per value", regexp.MustCompile(`RegisterPayload`), everyFile,
		"RegisterPayload is gone: the wire payload set is closed"},
	{"a destroy is a destroy", regexp.MustCompile(`StreamLegacy|SendLegacy|LegacyImage|LegacyBundles|LegacyEvicted|causalgc_legacy_`), outsideBench,
		"finalisation bundles ride the destroy ledger and stream: the legacy names are gone"},
	{"retained means retained", regexp.MustCompile(`maxOutbox|maxAssertRows|outboxEvictedLocked|FrameEvicted|AssertRowsDropped|causalgc_backstop_drops_total|frame_evicted`), outsideBench,
		"a ledger row leaves only when it is acknowledged: the caps and their backstop surfaces are gone"},
	{"journal order is execution order", regexp.MustCompile(`MutSeq|premint|predictedRef|observeSeqLocked|cycleMu|refreshRound`), outsideBench,
		"a durable site runs one journaled event at a time and apply draws: the pre-mint machinery and the cycle mutex are gone"},
	{"one event lock", regexp.MustCompile(`ckptMu|recoverBuf|bufDelivery|maybeCheckpoint|onlyIfDue|checkpointAll`), outsideBench,
		"a durable site's replay and checkpoint run inside its event lock: the checkpoint mutex, the replay buffer and the due re-check are gone"},
	{"one evaluate, one edge-destroy, one payload", regexp.MustCompile(`func \(e \*Engine\) verdict|queueLocalDestroy|sendEdgeDestroy`), outsideBench,
		"evaluate is the one verdict and destroyEdge the one edge-destroy: the copies are gone"},
	{"one evaluate, one edge-destroy, one payload", regexp.MustCompile(`cloneProp`), nonTest,
		"propagate shares one payload across its out-edges: cloneProp is a test helper"},
	{"nothing computed that nothing reads", regexp.MustCompile(`JoinPath|WithMetricsAddr|MetricsAddr\(\)`), outsideBench,
		"the closure is a reachability walk and monitor.NewServer the one way to serve monitors: JoinPath and the metrics-address option are gone"},
	{"nothing computed that nothing reads", regexp.MustCompile(`Unsafe|Owns`), rootPackage,
		"causalgc.EngineOptions carries the removal observer only: the ablations are the internal/sim experiments', set through site.Options.Engine"},
	{"retained means retained, with no exceptions", regexp.MustCompile(`StreamAdvance|tagStreamAdvance|advanceFloors|handleAdvanceLocked|RetainedFloor|retireAsserts|causalgc_advances_sent_total`), outsideBench,
		"a ledger row leaves only when it is acknowledged, so no sequence is abandoned: the floor advisories and the side-path drops are gone"},
	{"durable state is protocol state", regexp.MustCompile(`frameShards|handleFrameAckLocked`), outsideBench,
		"a FrameAck is applied once per site, to every shard, by applyAck and journaled by none: the per-frame shard range and the per-shard ack delivery are gone"},
	{"durable state is protocol state", regexp.MustCompile(`PeerEpochImage|FrameStatsImage|restoreFrameStats|EdgeImage|sortEdges`), outsideBench,
		"the snapshot holds only what replay must reproduce: peer epochs, counters and edge counts are rebuilt by recovery, not imaged"},
	{"a retained row is a peer, a sequence and a payload", regexp.MustCompile(`assertRowLess|\bassertRow\b|edgeKey|outKey`), outsideBench,
		"a ledger row has no key: every ledger walks in retention order, and the assert journal's key order and the row-key types are gone"},
	{"the site keeps what it sent", regexp.MustCompile(`core\.Ledger|\bLedger\[|NewLedger|edgeMsg|AssertRowImage|DestroyImage|sendJournaledAssert|cloneDestroy`), outsideBench,
		"the engine only sends: each shard keeps the frames it sent in one ledger per stream, so the engine's ledgers, their rows and their image types are gone"},
	{"the experiments are tests", regexp.MustCompile(`causalgc/eval\b|causalgc-bench|RunResults|WriteJSON|NewShardedWorld|NewDurableWorld`), outsideBench,
		"E5-E9 and A2 are tests in internal/sim and newWorld is the harness's one constructor: the eval package, its CLI, its JSON artifact and the world wrappers are gone"},
	{"the soak is a test", regexp.MustCompile(`causalgc-soak|SetResidual|causalgc_residual_garbage|SOAK_`), outsideBench,
		"the soak is the root package's TestSoak, which asserts causalgc.Check directly: the CLI, its JSON artifacts and the residual gauge only it set are gone"},
	{"the module builds one binary", regexp.MustCompile(`causalgc-vet|go run \./examples`), outsideBench,
		"the invariant checker is internal/analysis's module tests and the worked examples are the root package's Example functions: causalgc-vet and the example programs are gone"},
	{"the module builds one binary", regexp.MustCompile(`\bStream(Mut|Assert|Destroy)?\b`), rootPackage,
		"a retirement names no stream outside the site: AckObserver.FrameRetired fires for mutator frames only, and causalgc.Stream and its constants are gone"},
}

// frozen lists the names kept only because bench/, frozen with the
// benchmark, still refers to them. No code outside bench/ may use one;
// the thaw deletes each row together with its names. Each row's pattern
// is a use site, searched line by line like a retired row's.
//
// Three vestigial parameters stay in product signatures for the same
// reason, and cannot be matched by name: HandleDestroyFrame's trailing
// bool, Log.Closure's uint64 clock, and the sequence core.Sender's
// SendDestroy and SendAssert take (bench's engine harness implements
// the interface).
var frozen = []nameRow{
	{"frozen for bench/", regexp.MustCompile(`\.(AckDestroys|LegacyResends|OutboxEvicted|AdvancesSent|KindAdvance|Instance)\b`), outsideBench,
		"Engine.AckDestroys, Stats.LegacyResends, FrameStats.OutboxEvicted, FrameStats.AdvancesSent, wire.KindAdvance and site.Instance are kept only for bench/"},
	{"frozen for bench/", regexp.MustCompile(`site\.(New|Recover)\(`), func(rel string) bool { return outsideBench(rel) && nonTest(rel) },
		"site.New and site.Recover are kept only for bench/ and the site tests: product code calls site.NewSharded and site.RecoverSharded"},
}

// TestRetiredNamesStayGone fails on any line of a .go file that a
// retired row's pattern matches within the row's scope: a name deleted
// on purpose is not re-added by accident.
func TestRetiredNamesStayGone(t *testing.T) { checkModule(t, retired) }

// TestFrozenNamesStayInBench fails on any line of a .go file that a
// frozen row's pattern matches within the row's scope: no new code
// leans on a name the thaw will delete.
func TestFrozenNamesStayInBench(t *testing.T) { checkModule(t, frozen) }

// checkModule checks every .go file of the module, this one aside,
// against rows.
func checkModule(t *testing.T, rows []nameRow) {
	root, _, err := findModule()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := moduleDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				t.Fatal(err)
			}
			rel = filepath.ToSlash(rel)
			if rel == retiredSelf {
				continue
			}
			checkRetired(t, rows, path, rel)
		}
	}
}

func checkRetired(t *testing.T, rows []nameRow, path, rel string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		for _, r := range rows {
			if r.scope(rel) && r.pattern.MatchString(sc.Text()) {
				t.Errorf("%s:%d: %s: %s", rel, line, r.rule, r.message)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}
