package main

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
const retiredSelf = "cmd/causalgc-vet/retired_test.go"

// File scopes of the retired-name rows, on module-relative paths.
func outsideBench(rel string) bool { return !strings.HasPrefix(rel, "bench/") }
func nonTest(rel string) bool      { return !strings.HasSuffix(rel, "_test.go") }
func everyFile(string) bool        { return true }
func rootPackage(rel string) bool  { return !strings.Contains(rel, "/") }
func examples(rel string) bool     { return strings.HasPrefix(rel, "examples/") }

// retired lists the names a change deleted on purpose and that must not
// come back. Each row is named after the change that retired it; its
// pattern is searched line by line in the .go files its scope accepts.
// bench/ is its own module, frozen with the benchmark, and most rows
// leave it out.
var retired = []struct {
	rule    string
	pattern *regexp.Regexp
	scope   func(rel string) bool
	message string
}{
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
		"causalgc.EngineOptions carries the removal observer only: the ablations are eval's, set through site.Options.Engine"},
	{"nothing computed that nothing reads", regexp.MustCompile(`Unsafe|Owns`), examples,
		"causalgc.EngineOptions carries the removal observer only: the ablations are eval's, set through site.Options.Engine"},
	{"retained means retained, with no exceptions", regexp.MustCompile(`StreamAdvance|tagStreamAdvance|advanceFloors|handleAdvanceLocked|RetainedFloor|retireAsserts|causalgc_advances_sent_total`), outsideBench,
		"a ledger row leaves only when it is acknowledged, so no sequence is abandoned: the floor advisories and the side-path drops are gone"},
}

// TestRetiredNamesStayGone fails on any line of a .go file that a
// retired row's pattern matches within the row's scope: a name deleted
// on purpose is not re-added by accident.
func TestRetiredNamesStayGone(t *testing.T) {
	root, _, err := findModule()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := expand(root, []string{"./..."})
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
			checkRetired(t, path, rel)
		}
	}
}

func checkRetired(t *testing.T, path, rel string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		for _, r := range retired {
			if r.scope(rel) && r.pattern.MatchString(sc.Text()) {
				t.Errorf("%s:%d: %s: %s", rel, line, r.rule, r.message)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}
