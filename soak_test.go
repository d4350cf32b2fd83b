package causalgc

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"causalgc/internal/mutator"
	"causalgc/internal/site"
	"causalgc/monitor"
	"causalgc/transport"
)

// The soak schedule, counted in performed mutator operations: a
// partition starts at op soakCutAt of every soakCutEvery and lasts
// soakCutLen ops.
const (
	soakOps          = 2000
	soakCollectEvery = 100
	soakRefreshEvery = 400
	soakCutEvery     = 250
	soakCutAt        = 100
	soakCutLen       = 75
	soakKillAt       = 800
	soakFsyncBudget  = time.Second
)

// TestSoak is the long-haul steady-state check. A durable, async,
// sharded cluster runs mutator.Churn at seed 1 under a fixed schedule
// of collections, refresh rounds, partitions of one site's control
// traffic and one kill-restart, while a goroutine scrapes the cluster's
// /metrics endpoint and fails on any scrape it cannot parse. Then every
// fault heals and the test asserts what a healthy long-lived deployment
// shows at quiescence:
//
//   - two consecutive refresh rounds re-ship nothing;
//   - the oracle finds no garbage and no dangling reference;
//   - every depth gauge is zero, per shard and in aggregate;
//   - no WAL fsync took longer than soakFsyncBudget;
//   - two scrapes straddling one more refresh show the re-send counter
//     frozen and every depth gauge at zero.
func TestSoak(t *testing.T) {
	for _, c := range []struct{ sites, shards int }{{4, 1}, {3, 4}} {
		t.Run(fmt.Sprintf("%d_sites_%d_shards", c.sites, c.shards), func(t *testing.T) {
			s := startSoak(t, c.sites, c.shards)
			s.scrapeLoop()
			stats, err := mutator.Churn(s, mutator.ChurnConfig{Seed: 1, Ops: soakOps, StepsBetweenOps: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("churn %+v, %d partitions, %d restart(s)", stats, s.partitions, s.restarts)
			if s.partitions == 0 || s.restarts != 1 {
				t.Errorf("schedule ran %d partitions and %d restarts, want some and 1", s.partitions, s.restarts)
			}
			s.cut.Store(0)
			s.quiesce()
			s.checkScrapes()
		})
	}
}

// soak is the running cluster. It is the mutator.World Churn drives:
// Step, called after every performed operation, runs the schedule and
// delivers nothing, since the async transport delivers on its own.
type soak struct {
	clusterWorld
	t      *testing.T
	dir    string
	shards int
	common []Option // every node's options but its directory and monitor
	tr     *transport.Async
	mons   []*monitor.Monitor // mons[i] watches site i+1 across restarts
	srv    *monitor.Server
	rng    *rand.Rand   // partition and kill victims; Churn draws its own
	cut    atomic.Int64 // the partitioned site, 0 for none

	ops, partitions, restarts int
}

func startSoak(t *testing.T, sites, shards int) *soak {
	s := &soak{t: t, dir: t.TempDir(), shards: shards, rng: rand.New(rand.NewSource(1))}
	// Application payloads are exempt from faults, so a partition loses
	// only control traffic.
	s.tr = transport.NewAsync(transport.Faults{Seed: 1, Partitioned: func(from, to SiteID) bool {
		c := SiteID(s.cut.Load())
		return c != 0 && (from == c || to == c)
	}})
	s.common = []Option{WithTransport(s.tr), WithSnapshotEvery(128), WithShards(shards)}
	s.c = NewCluster(sites, append(s.common, WithPersistence(s.dir), WithMonitor(monitor.New(0)))...)
	t.Cleanup(func() {
		for i, m := range s.mons {
			if t.Failed() {
				t.Logf("site %d trace tail: %+v", i+1, m.Events(30))
			}
		}
		s.c.Close()
		s.tr.Close()
	})
	for _, n := range s.c.nodes {
		s.mons = append(s.mons, n.Monitor())
	}
	var err error
	if s.srv, err = monitor.NewServer("127.0.0.1:0", s.mons...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.srv.Close() })
	return s
}

func (s *soak) Step() bool {
	s.ops++
	switch k := s.ops; {
	case k == soakKillAt:
		s.restart(s.rng.Intn(len(s.mons)))
	case k%soakCutEvery == soakCutAt:
		s.cut.Store(int64(1 + s.rng.Intn(len(s.mons))))
		s.partitions++
	case k%soakCutEvery == soakCutAt+soakCutLen:
		s.cut.Store(0)
	}
	for _, n := range s.c.nodes {
		if s.ops%soakCollectEvery == 0 {
			_, err := n.Collect()
			s.check(err)
		}
		if s.ops%soakRefreshEvery == 0 {
			s.check(n.Refresh())
		}
	}
	return false
}

func (s *soak) check(err error) {
	if err != nil {
		s.t.Fatal(err)
	}
}

// restart crash-stops node i (Close writes no final snapshot) and
// recovers it from its journal on the same transport and monitor.
func (s *soak) restart(i int) {
	s.check(s.c.nodes[i].Close())
	n, err := Recover(SiteID(i+1), append(s.common,
		WithPersistence(filepath.Join(s.dir, fmt.Sprintf("site-%d", i+1))), WithMonitor(s.mons[i]))...)
	s.check(err)
	s.c.nodes[i] = n
	s.restarts++
}

// resends sums every re-send and damper counter in the cluster: the
// quantity that stops moving at steady state.
func (s *soak) resends() int {
	total := 0
	for _, n := range s.c.nodes {
		es, fs := n.Stats(), n.FrameStats()
		total += es.AssertResends + es.DestroyResends + es.ResendsSuppressed + fs.OutboxResends + fs.ResendsSuppressed
	}
	return total
}

// quiesce drives collect+refresh rounds until two consecutive rounds
// re-ship nothing and the oracle is clean, then checks the depth gauges
// and the fsync budget.
func (s *soak) quiesce() {
	t := s.t
	prev, still := s.resends(), 0
	for round := 1; ; round++ {
		s.check(s.c.CollectAll())
		s.check(s.c.RefreshAll())
		if cur := s.resends(); cur == prev {
			still++
		} else {
			prev, still = cur, 0
		}
		rep := s.c.Check()
		if still >= 2 && rep.Clean() {
			t.Logf("steady state in %d rounds, %d live objects", round, rep.Live)
			break
		}
		if round == 60 {
			t.Fatalf("no steady state after 60 rounds: oracle %v, re-send counters still for the last %d", rep, still)
		}
	}
	for i, m := range s.mons {
		snap := m.Snapshot()
		// Every shard and the aggregate are zero, so the shards also sum
		// to the aggregate.
		for _, d := range append(snap.ShardDepths, snap.Depths) {
			if d != (site.Depths{}) {
				t.Errorf("site %d retained state not drained: %+v, shards %+v", i+1, snap.Depths, snap.ShardDepths)
				break
			}
		}
		if snap.Shards != s.shards || len(snap.ShardDepths) != s.shards {
			t.Errorf("site %d reports %d shards and %d shard depths, want %d", i+1, snap.Shards, len(snap.ShardDepths), s.shards)
		}
		if snap.Persist == nil || time.Duration(snap.Persist.SyncMaxNanos) > soakFsyncBudget {
			t.Errorf("site %d persistence stats %+v, want a max fsync within %v", i+1, snap.Persist, soakFsyncBudget)
		}
	}
}

// checkScrapes proves the steady state from outside: two scrapes
// straddling one more refresh round show the re-send counter frozen and
// every depth gauge at zero, with one sample per site (per shard for
// the shard gauges).
func (s *soak) checkScrapes() {
	t := s.t
	before, err := s.scrape()
	if err != nil {
		t.Fatal(err)
	}
	s.check(s.c.RefreshAll())
	after, err := s.scrape()
	if err != nil {
		t.Fatal(err)
	}
	if b, a := before["causalgc_resends_total"].sum, after["causalgc_resends_total"].sum; a != b {
		t.Errorf("causalgc_resends_total moved across a quiescent refresh: %v -> %v", b, a)
	}
	for gauge, n := range map[string]int{
		"causalgc_outbox_depth":                   len(s.mons),
		"causalgc_assert_journal_depth":           len(s.mons),
		"causalgc_destroy_bundles_depth":          len(s.mons),
		"causalgc_pending_deliveries_depth":       len(s.mons),
		"causalgc_shard_outbox_depth":             len(s.mons) * s.shards,
		"causalgc_shard_assert_journal_depth":     len(s.mons) * s.shards,
		"causalgc_shard_destroy_bundles_depth":    len(s.mons) * s.shards,
		"causalgc_shard_pending_deliveries_depth": len(s.mons) * s.shards,
	} {
		if got := after[gauge]; got != (series{n: n}) {
			t.Errorf("%s: %d samples summing to %v, want %d zeros", gauge, got.n, got.sum, n)
		}
	}
}

// scrapeLoop scrapes /metrics every 25 ms until the test ends, the way
// an external Prometheus would, and fails the test on any scrape that
// fails or does not parse.
func (s *soak) scrapeLoop() {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := s.scrape(); err != nil {
				s.t.Errorf("scrape during the soak: %v", err)
			}
			select {
			case <-quit:
				return
			case <-time.After(25 * time.Millisecond):
			}
		}
	}()
	s.t.Cleanup(func() { close(quit); <-done })
}

// series is one metric's sample count and sum in a scrape.
type series struct {
	n   int
	sum float64
}

// scrape fetches /metrics and parses it into each metric's series. A
// line that is neither a comment nor `name[{labels}] value` fails it.
func (s *soak) scrape() (map[string]series, error) {
	resp, err := http.Get("http://" + s.srv.Addr() + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d, %v", resp.StatusCode, err)
	}
	samples := map[string]series{}
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i <= 0 || err != nil {
			return nil, fmt.Errorf("unparsable /metrics line %q", line)
		}
		name, _, _ := strings.Cut(line[:i], "{")
		samples[name] = series{samples[name].n + 1, samples[name].sum + v}
	}
	if n := samples["causalgc_objects"].n; n != len(s.mons) {
		return nil, fmt.Errorf("/metrics has %d causalgc_objects samples, want %d", n, len(s.mons))
	}
	return samples, nil
}
