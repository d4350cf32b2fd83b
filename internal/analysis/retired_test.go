package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
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
	{"one codec per value", regexp.MustCompile(`"encoding/gob"`), nonTest,
		"frames, records and snapshots share internal/wire/binary.go's codec: only tests import encoding/gob, as the oracle"},
	{"one codec per value", regexp.MustCompile(`RegisterPayload`), everyFile,
		"RegisterPayload is gone: the wire payload set is closed"},
	{"one codec per value", regexp.MustCompile(`SnapshotVersion`), outsideBench,
		"a snapshot opens with the codec version like every other wire value: SnapshotVersion and SiteImage.Version are gone"},
	{"one codec per value", regexp.MustCompile(`gob\.Register`), nonTest,
		"no product code registers types with gob: only tests gob-encode an image, as the oracle"},
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
	{"the journal syncs what it appends", regexp.MustCompile(`WithGroupCommit|flushLoop|flushQuit|lastSync|SegmentBytes`), outsideBench,
		"every persist.Store append is synced before it returns (NoSync aside), and segments rotate at a fixed size: the timed group commit, its flusher, its option and the segment-size knob are gone"},
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
	{"frozen for bench/", regexp.MustCompile(`\bGroupCommit:|\.GroupCommit\b`), func(rel string) bool { return outsideBench(rel) && rel != "persist/persist_test.go" },
		"persist.Options.GroupCommit is ignored and kept only for bench/; persist's own test sets it to show that it is ignored"},
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
	lits := make([][]string, len(rows))
	for i, r := range rows {
		re, err := syntax.Parse(r.pattern.String(), syntax.Perl)
		if err != nil {
			t.Fatal(err)
		}
		if lits[i] = requiredLiterals(re); lits[i] == nil {
			t.Fatalf("%s: pattern %q names no literal every match contains", r.rule, r.pattern)
		}
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
			checkRetired(t, rows, lits, path, rel)
		}
	}
}

// checkRetired reports the lines of one file that a row in scope
// matches. A row's regexp runs only on the lines holding one of its
// required literals, lits[i]: a line without one cannot match, and a
// substring search is far cheaper than the regexp.
func checkRetired(t *testing.T, rows []nameRow, lits [][]string, path, rel string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := string(buf)
	var lines []string
	for i, r := range rows {
		if !r.scope(rel) || !containsAny(src, lits[i]) {
			continue
		}
		if lines == nil {
			lines = strings.Split(src, "\n")
		}
		for n, line := range lines {
			if containsAny(line, lits[i]) && r.pattern.MatchString(line) {
				t.Errorf("%s:%d: %s: %s", rel, n+1, r.rule, r.message)
			}
		}
	}
}

// requiredLiterals returns strings one of which every match of re
// contains, or nil when it can name none.
func requiredLiterals(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture, syntax.OpPlus:
		return requiredLiterals(re.Sub[0])
	case syntax.OpRepeat:
		if re.Min > 0 {
			return requiredLiterals(re.Sub[0])
		}
	case syntax.OpConcat:
		// Any one part's literals do; the part whose shortest literal is
		// longest filters best.
		var best []string
		for _, sub := range re.Sub {
			if l := requiredLiterals(sub); l != nil && shortest(l) > shortest(best) {
				best = l
			}
		}
		return best
	case syntax.OpAlternate:
		var all []string
		for _, sub := range re.Sub {
			l := requiredLiterals(sub)
			if l == nil {
				return nil
			}
			all = append(all, l...)
		}
		return all
	}
	return nil
}

func shortest(lits []string) int {
	n := 0
	for i, l := range lits {
		if i == 0 || len(l) < n {
			n = len(l)
		}
	}
	return n
}

func containsAny(s string, lits []string) bool {
	for _, l := range lits {
		if strings.Contains(s, l) {
			return true
		}
	}
	return false
}
