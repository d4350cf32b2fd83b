// causalgc-soak is the long-haul steady-state harness: a multi-site
// durable cluster run for a configurable duration under randomised
// mutator churn, network partitions and a kill-restart, with every node
// exporting its monitor through one metrics endpoint the harness
// scrapes over HTTP while the run is live.
//
// When the duration elapses the harness heals all faults, drives
// collection and refresh rounds until the acknowledged-retirement
// protocol reaches steady state, and asserts the invariants a healthy
// long-lived deployment must show:
//
//   - refresh converges: two consecutive rounds re-ship zero retained
//     rows and suppress nothing (also proven from two Prometheus
//     scrapes straddling an extra refresh round);
//   - the global reachability oracle finds zero residual garbage and
//     zero dangling references;
//   - the outbox, assert-journal and destroy-bundle depth gauges are
//     back to zero — per shard (-shards) and in aggregate: every
//     retained row was acknowledged, since none is ever dropped;
//   - every WAL fsync stayed within the latency budget.
//
// Any violation dumps the per-site structured event traces and exits
// non-zero.
//
// Usage:
//
//	causalgc-soak -duration 2m -sites 4                  # acceptance run
//	causalgc-soak -duration 30s -seed 7 -json soak.json  # CI lane
//	causalgc-soak -duration 20s -sites 3 -shards 4       # lock-striped lane
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"causalgc"
	"causalgc/monitor"
	"causalgc/transport"
)

func main() {
	cfg := soakConfig{}
	flag.DurationVar(&cfg.duration, "duration", 2*time.Minute, "churn phase length; quiescence checks run after it")
	flag.IntVar(&cfg.sites, "sites", 4, "number of sites in the cluster (>= 2)")
	flag.IntVar(&cfg.shards, "shards", 1, "lock-stripe width of every site (>= 1)")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "127.0.0.1:0", "address the cluster-wide metrics endpoint binds")
	flag.StringVar(&cfg.persistDir, "persist", "", "root directory for per-site durability; empty = a fresh temp dir, removed on success")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the churn, partition and fault randomness")
	flag.StringVar(&cfg.jsonPath, "json", "", "write the machine-readable run summary to this path ('-' for stdout)")
	flag.DurationVar(&cfg.fsyncBudget, "fsync-budget", time.Second, "maximum tolerated single WAL fsync latency")
	flag.BoolVar(&cfg.verbose, "v", false, "print periodic progress lines during the churn phase")
	flag.Parse()

	if cfg.sites < 2 || cfg.shards < 1 {
		fmt.Fprintln(os.Stderr, "causalgc-soak: -sites must be >= 2 and -shards >= 1")
		os.Exit(2)
	}
	sum, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "causalgc-soak:", err)
		os.Exit(1)
	}
	if cfg.jsonPath != "" {
		if err := writeSummary(cfg.jsonPath, sum); err != nil {
			fmt.Fprintln(os.Stderr, "causalgc-soak:", err)
			os.Exit(1)
		}
	}
	if !sum.Pass {
		os.Exit(1)
	}
}

type soakConfig struct {
	duration    time.Duration
	sites       int
	shards      int
	metricsAddr string
	persistDir  string
	seed        int64
	jsonPath    string
	fsyncBudget time.Duration
	verbose     bool
}

// summary is the machine-readable outcome of one soak run (-json).
type summary struct {
	Pass            bool     `json:"pass"`
	DurationSeconds float64  `json:"duration_seconds"`
	Sites           int      `json:"sites"`
	Shards          int      `json:"shards,omitempty"`
	Seed            int64    `json:"seed"`
	Ops             int      `json:"ops"`
	Creates         int      `json:"creates"`
	Shares          int      `json:"shares"`
	Drops           int      `json:"drops"`
	Skipped         int      `json:"skipped"`
	Partitions      int      `json:"partitions"`
	Restarts        int      `json:"restarts"`
	Scrapes         int64    `json:"scrapes"`
	ScrapeErrors    int64    `json:"scrape_errors"`
	QuiesceRounds   int      `json:"quiesce_rounds"`
	Live            int      `json:"live"`
	Residual        int      `json:"residual"`
	Dangling        int      `json:"dangling"`
	Violations      []string `json:"violations"`
}

// soak holds the running cluster and the churn driver's bookkeeping.
type soak struct {
	cfg   soakConfig
	tr    *transport.Async
	nodes []*causalgc.Node   // nodes[i] hosts site i+1
	mons  []*monitor.Monitor // mons[i] watches site i+1
	msrv  *monitor.Server
	rng   *rand.Rand
	cut   atomic.Int64 // site currently partitioned off (0 = none)

	// Mutator mirror, in the style of the internal churn driver: only
	// legal operations are issued; in-flight races surface as skips.
	holdings map[causalgc.ObjectID][]causalgc.Ref
	holders  []causalgc.ObjectID
	inSet    map[causalgc.ObjectID]struct{}
	refOf    map[causalgc.ObjectID]causalgc.Ref

	sum        summary
	violations []string
}

func run(cfg soakConfig) (summary, error) {
	s := &soak{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.seed)),
		holdings: map[causalgc.ObjectID][]causalgc.Ref{},
		inSet:    map[causalgc.ObjectID]struct{}{},
		refOf:    map[causalgc.ObjectID]causalgc.Ref{},
	}
	s.sum.Sites = cfg.sites
	s.sum.Shards = cfg.shards
	s.sum.Seed = cfg.seed
	s.sum.DurationSeconds = cfg.duration.Seconds()

	root := cfg.persistDir
	if root == "" {
		dir, err := os.MkdirTemp("", "causalgc-soak-*")
		if err != nil {
			return s.sum, err
		}
		defer func() {
			if s.sum.Pass {
				os.RemoveAll(dir)
			} else {
				fmt.Printf("durability state kept at %s\n", dir)
			}
		}()
		root = dir
	}

	// The partition predicate reads the atomic victim so the driver can
	// cut and heal mid-run; mutator traffic is exempt by the transport's
	// fault contract, so only GGD control traffic is lost.
	s.tr = transport.NewAsync(transport.Faults{
		Seed: cfg.seed,
		Partitioned: func(from, to causalgc.SiteID) bool {
			c := causalgc.SiteID(s.cut.Load())
			return c != 0 && (from == c || to == c)
		},
	})
	defer s.tr.Close()

	for i := 1; i <= cfg.sites; i++ {
		mon := monitor.New(0)
		n, err := causalgc.Recover(causalgc.SiteID(i), s.nodeOpts(root, i, mon)...)
		if err != nil {
			return s.sum, fmt.Errorf("start site %d: %w", i, err)
		}
		s.mons = append(s.mons, mon)
		s.nodes = append(s.nodes, n)
		s.refOf[n.Root().Obj] = n.Root()
	}
	defer func() {
		for _, n := range s.nodes {
			n.Close()
		}
	}()

	msrv, err := monitor.NewServer(cfg.metricsAddr, s.mons...)
	if err != nil {
		return s.sum, fmt.Errorf("metrics endpoint: %w", err)
	}
	defer msrv.Close()
	s.msrv = msrv
	fmt.Printf("soak: %d sites, %v churn, seed %d, metrics on %v, persistence under %s\n",
		cfg.sites, cfg.duration, cfg.seed, msrv.Addr(), root)

	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		s.scrapeLoop(stopScrape)
	}()
	stopScraping := func() {
		select {
		case <-stopScrape:
		default:
			close(stopScrape)
		}
		<-scrapeDone
	}
	defer stopScraping()

	if err := s.churnPhase(root); err != nil {
		return s.sum, err
	}
	s.quiescePhase()
	s.finalScrapeChecks()
	stopScraping() // join before the summary copies the scrape counters

	s.sum.Violations = s.violations
	s.sum.Pass = len(s.violations) == 0
	if s.sum.Pass {
		fmt.Printf("soak PASS: %d ops, %d partitions, %d restart(s), %d scrapes, steady state in %d round(s)\n",
			s.sum.Ops, s.sum.Partitions, s.sum.Restarts, s.sum.Scrapes, s.sum.QuiesceRounds)
		return s.sum, nil
	}
	fmt.Printf("soak FAIL: %d violation(s)\n", len(s.violations))
	for _, v := range s.violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
	s.dumpTraces()
	return s.sum, nil
}

// nodeOpts are the options every site starts (and restarts) with.
func (s *soak) nodeOpts(root string, site int, mon *monitor.Monitor) []causalgc.Option {
	return []causalgc.Option{
		causalgc.WithTransport(s.tr),
		causalgc.WithPersistence(filepath.Join(root, fmt.Sprintf("site-%d", site))),
		causalgc.WithSnapshotEvery(128),
		causalgc.WithGroupCommit(2 * time.Millisecond),
		causalgc.WithMonitor(mon),
		causalgc.WithShards(s.cfg.shards),
	}
}

// churnPhase drives randomised mutation, periodic collection and
// refresh, partition windows, and one kill-restart at ~40% of the
// duration, until the configured duration elapses.
func (s *soak) churnPhase(root string) error {
	start := time.Now()
	deadline := start.Add(s.cfg.duration)
	restartAt := start.Add(s.cfg.duration * 2 / 5)
	partitionEvery := s.cfg.duration / 8
	if partitionEvery < 4*time.Second {
		partitionEvery = 4 * time.Second
	}
	const partitionLen = 1500 * time.Millisecond

	var lastCollect, lastRefresh, lastPartition, lastStatus time.Time
	var healAt time.Time
	restarted := false

	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}

		if s.cut.Load() != 0 && now.After(healAt) {
			s.cut.Store(0)
		}
		if s.cut.Load() == 0 && now.Sub(lastPartition) > partitionEvery {
			victim := 1 + s.rng.Intn(s.cfg.sites)
			s.cut.Store(int64(victim))
			healAt = now.Add(partitionLen)
			lastPartition = now
			s.sum.Partitions++
			if s.cfg.verbose {
				fmt.Printf("partition: site %d cut off for %v\n", victim, partitionLen)
			}
		}
		if !restarted && now.After(restartAt) {
			restarted = true
			s.cut.Store(0) // the kill is faulty enough on its own
			victim := 1 + s.rng.Intn(s.cfg.sites)
			if err := s.restart(root, victim); err != nil {
				return err
			}
		}
		if now.Sub(lastCollect) > 500*time.Millisecond {
			lastCollect = now
			for _, n := range s.nodes {
				n.Collect()
			}
		}
		if now.Sub(lastRefresh) > 2*time.Second {
			lastRefresh = now
			for _, n := range s.nodes {
				n.Refresh()
			}
		}
		if s.cfg.verbose && now.Sub(lastStatus) > 5*time.Second {
			lastStatus = now
			objects, removed := 0, 0
			for _, m := range s.mons {
				snap := m.Snapshot()
				objects += snap.Objects
				removed += snap.Engine.Removed
			}
			fmt.Printf("churn: %d ops, %d objects, %d clusters removed\n", s.sum.Ops, objects, removed)
		}

		s.churnOp()
		time.Sleep(5 * time.Millisecond)
	}
	s.cut.Store(0)
	return nil
}

// restart crash-stops one site (Close is crash-equivalent: no final
// snapshot) and recovers it from its WAL on the same transport and
// monitor. Deliveries racing the gap are dropped like network loss; the
// acknowledged-retirement outbox re-ships them on later refreshes.
func (s *soak) restart(root string, victim int) error {
	if err := s.nodes[victim-1].Close(); err != nil {
		return fmt.Errorf("kill site %d: %w", victim, err)
	}
	n, err := causalgc.Recover(causalgc.SiteID(victim), s.nodeOpts(root, victim, s.mons[victim-1])...)
	if err != nil {
		return fmt.Errorf("restart site %d: %w", victim, err)
	}
	s.nodes[victim-1] = n
	s.sum.Restarts++
	fmt.Printf("kill-restart: site %d recovered (%d objects)\n", victim, n.NumObjects())
	return nil
}

// churnOp performs one randomised, always-legal mutator operation
// (create 4 : share 4 : drop 3, mirroring the simulator's churn mix).
func (s *soak) churnOp() {
	s.sum.Ops++
	addHolding := func(o causalgc.ObjectID, ref causalgc.Ref) {
		if _, ok := s.inSet[o]; !ok {
			s.inSet[o] = struct{}{}
			s.holders = append(s.holders, o)
		}
		s.holdings[o] = append(s.holdings[o], ref)
	}
	randomHolder := func() (causalgc.ObjectID, bool) {
		if len(s.holders) == 0 {
			return causalgc.ObjectID{}, false
		}
		return s.holders[s.rng.Intn(len(s.holders))], true
	}
	node := func(id causalgc.SiteID) *causalgc.Node { return s.nodes[int(id)-1] }

	switch roll := s.rng.Intn(11); {
	case roll < 4: // create from a random root or known holder
		var holder causalgc.ObjectID
		if len(s.holders) == 0 || s.rng.Intn(3) == 0 {
			holder = s.nodes[s.rng.Intn(s.cfg.sites)].Root().Obj
		} else if h, ok := randomHolder(); ok {
			holder = h
		}
		hn := node(holder.Site)
		target := causalgc.SiteID(1 + s.rng.Intn(s.cfg.sites))
		var ref causalgc.Ref
		var err error
		if target == holder.Site {
			ref, err = hn.NewLocal(holder)
		} else {
			ref, err = hn.NewRemote(holder, target)
		}
		if err != nil {
			s.sum.Skipped++
			return
		}
		s.refOf[ref.Obj] = ref
		addHolding(holder, ref)
		s.sum.Creates++

	case roll < 8: // copy a held reference to a random destination
		h, ok := randomHolder()
		if !ok || len(s.holdings[h]) == 0 {
			s.sum.Skipped++
			return
		}
		held := s.holdings[h]
		target := held[s.rng.Intn(len(held))]
		var dest causalgc.Ref
		if len(s.holders) > 0 && s.rng.Intn(3) != 0 {
			dest = s.refOf[s.holders[s.rng.Intn(len(s.holders))]]
		}
		if !dest.Valid() {
			dest = s.nodes[s.rng.Intn(s.cfg.sites)].Root()
		}
		if err := node(h.Site).SendRef(h, dest, target); err != nil {
			s.sum.Skipped++
			return
		}
		addHolding(dest.Obj, target)
		s.sum.Shares++

	default: // drop all slots of one held reference (roots included)
		h, ok := randomHolder()
		if !ok || len(s.holdings[h]) == 0 {
			s.sum.Skipped++
			return
		}
		held := s.holdings[h]
		target := held[s.rng.Intn(len(held))]
		if err := node(h.Site).DropRefs(h, target); err != nil {
			s.sum.Skipped++
			return
		}
		kept := held[:0]
		for _, r := range held {
			if r.Obj != target.Obj {
				kept = append(kept, r)
			}
		}
		s.holdings[h] = kept
		s.sum.Drops++
	}
}

// resendTotals sums every re-ship and damper-suppression counter across
// the cluster: the quantity that must stop growing at steady state.
func (s *soak) resendTotals() int {
	total := 0
	for _, n := range s.nodes {
		es := n.Stats()
		fs := n.FrameStats()
		total += es.AssertResends + es.DestroyResends + es.ResendsSuppressed
		total += fs.OutboxResends + fs.ResendsSuppressed
	}
	return total
}

// quiescePhase heals all faults and drives collect+refresh rounds until
// two consecutive rounds re-ship nothing and the oracle is clean (or
// the round budget runs out), then asserts the steady-state invariants.
func (s *soak) quiescePhase() {
	fmt.Println("quiescing: faults healed, driving refresh rounds to steady state")
	const maxRounds = 60
	prev := s.resendTotals()
	zeroRounds := 0
	converged := false
	var rep causalgc.Report
	for round := 1; round <= maxRounds; round++ {
		s.sum.QuiesceRounds = round
		for _, n := range s.nodes {
			n.Collect()
			n.Refresh()
		}
		if !s.tr.Drain(10 * time.Second) {
			s.violationf("transport failed to drain within 10s on quiesce round %d", round)
			break
		}
		cur := s.resendTotals()
		if cur == prev {
			zeroRounds++
		} else {
			zeroRounds = 0
		}
		prev = cur
		rep = causalgc.Check(s.nodes...)
		if zeroRounds >= 2 && rep.Clean() {
			converged = true
			break
		}
	}
	if !converged {
		s.violationf("no steady state after %d refresh rounds: %v, re-ship counters still moving", s.sum.QuiesceRounds, rep)
	}

	// Feed the oracle's verdict to the residual gauges, then assert it.
	perSite := map[causalgc.SiteID]int{}
	for _, obj := range rep.Garbage {
		perSite[obj.Site]++
	}
	for i, m := range s.mons {
		m.SetResidual(perSite[causalgc.SiteID(i+1)])
	}
	s.sum.Live, s.sum.Residual, s.sum.Dangling = rep.Live, len(rep.Garbage), len(rep.Dangling)
	if len(rep.Dangling) > 0 {
		s.violationf("SAFETY: %d dangling reference(s): %v", len(rep.Dangling), rep.Dangling)
	}
	if len(rep.Garbage) > 0 {
		s.violationf("%d residual garbage object(s) after quiescent refresh: %v", len(rep.Garbage), rep.Garbage)
	}

	for i, m := range s.mons {
		site := i + 1
		snap := m.Snapshot()
		if d := snap.Depths; d.Outbox != 0 || d.AssertRows != 0 || d.DestroyRows != 0 {
			s.violationf("site %d retained state not drained: outbox=%d assertRows=%d destroyRows=%d",
				site, d.Outbox, d.AssertRows, d.DestroyRows)
		}
		// The aggregate gauge must decompose into per-shard zeros — a
		// shard hiding retained state behind a sibling's negative
		// accounting would be a monitor bug.
		if snap.Shards != s.cfg.shards {
			s.violationf("site %d reports %d shards, configured %d", site, snap.Shards, s.cfg.shards)
		}
		shardOutbox, shardAsserts := 0, 0
		for si, d := range snap.ShardDepths {
			shardOutbox += d.Outbox
			shardAsserts += d.AssertRows
			if d.Outbox != 0 || d.AssertRows != 0 || d.DestroyRows != 0 {
				s.violationf("site %d shard %d retained state not drained: outbox=%d assertRows=%d destroyRows=%d",
					site, si, d.Outbox, d.AssertRows, d.DestroyRows)
			}
		}
		if shardOutbox != snap.Depths.Outbox || shardAsserts != snap.Depths.AssertRows {
			s.violationf("site %d per-shard depths do not sum to the aggregate: outbox %d vs %d, assertRows %d vs %d",
				site, shardOutbox, snap.Depths.Outbox, shardAsserts, snap.Depths.AssertRows)
		}
		if snap.Persist == nil {
			s.violationf("site %d exports no persistence stats on a durable run", site)
		} else if snap.Persist.SyncMaxNanos > s.cfg.fsyncBudget.Nanoseconds() {
			s.violationf("site %d max fsync %v exceeds budget %v",
				site, time.Duration(snap.Persist.SyncMaxNanos), s.cfg.fsyncBudget)
		}
	}
}

// finalScrapeChecks proves the steady state from the outside: two
// Prometheus scrapes straddling one more refresh round must show the
// re-ship counters frozen, every depth gauge at zero and every residual
// gauge at zero.
func (s *soak) finalScrapeChecks() {
	before, err := s.fetch("/metrics")
	if err != nil {
		s.violationf("final scrape: %v", err)
		return
	}
	for _, n := range s.nodes {
		n.Refresh()
	}
	s.tr.Drain(10 * time.Second)
	after, err := s.fetch("/metrics")
	if err != nil {
		s.violationf("final scrape: %v", err)
		return
	}

	rb, _ := sumMetric(before, "causalgc_resends_total")
	ra, _ := sumMetric(after, "causalgc_resends_total")
	if ra != rb {
		s.violationf("scraped causalgc_resends_total moved across a quiescent refresh: %v -> %v", rb, ra)
	}
	for _, gauge := range []string{"causalgc_outbox_depth", "causalgc_assert_journal_depth", "causalgc_destroy_bundles_depth", "causalgc_residual_garbage"} {
		total, n := sumMetric(after, gauge)
		if n != s.cfg.sites {
			s.violationf("scrape exports %d %s samples, want %d", n, gauge, s.cfg.sites)
		}
		if total != 0 {
			s.violationf("scraped %s sums to %v at quiescence, want 0", gauge, total)
		}
	}
	for _, gauge := range []string{"causalgc_shard_outbox_depth", "causalgc_shard_assert_journal_depth"} {
		samples := s.cfg.sites * s.cfg.shards
		total, n := sumMetric(after, gauge)
		if n != samples {
			s.violationf("scrape exports %d %s samples, want %d", n, gauge, samples)
		}
		if total != 0 {
			s.violationf("scraped %s sums to %v at quiescence, want 0", gauge, total)
		}
	}
}

// scrapeLoop polls the metrics endpoint for the whole run, the way an
// external Prometheus would, verifying each response parses.
func (s *soak) scrapeLoop(stop <-chan struct{}) {
	t := time.NewTicker(2 * time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		body, err := s.fetch("/metrics")
		if err != nil || !strings.Contains(body, "causalgc_objects") {
			atomic.AddInt64(&s.sum.ScrapeErrors, 1)
			continue
		}
		atomic.AddInt64(&s.sum.Scrapes, 1)
	}
}

func (s *soak) fetch(path string) (string, error) {
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + s.msrv.Addr() + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// sumMetric adds up every sample of one metric in a Prometheus text
// body, returning the sum and the sample count.
func sumMetric(body, name string) (float64, int) {
	total, count := 0.0, 0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		total += v
		count++
	}
	return total, count
}

func (s *soak) violationf(format string, args ...any) {
	s.violations = append(s.violations, fmt.Sprintf(format, args...))
}

// dumpTraces prints the tail of every site's structured event trace:
// the diagnostic context around a violated invariant.
func (s *soak) dumpTraces() {
	for i, m := range s.mons {
		events := m.Events(30)
		fmt.Printf("-- site %d event trace (last %d of %d recorded) --\n", i+1, len(events), m.Snapshot().Trace.Recorded)
		for _, e := range events {
			b, _ := json.Marshal(e)
			fmt.Printf("  %s\n", b)
		}
	}
}

// writeSummary writes the JSON run summary to path, or stdout for "-".
func writeSummary(path string, sum summary) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}
