package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"causalgc"
	"causalgc/monitor"
	"causalgc/transport"
)

// env is one built system under test: the nodes of a workload, the
// transport between them, and the benchmark's own instruments.
type env struct {
	nodes []*causalgc.Node
	// worlds partitions nodes into independent systems, each with its own
	// site numbering and so its own oracle verdict; nil means one world.
	worlds [][]*causalgc.Node
	// Either wrap or dets carries the traffic: churn-faults runs on bare
	// simulators because causalgc.Churn interleaves delivery through
	// Cluster.Step, which only a *transport.Deterministic given directly
	// to NewCluster provides.
	wrap *wrapped
	dets []*transport.Deterministic
	// under are the transports whose statistics are summed.
	under []transport.Transport
	obs   *observer
	rec   *recorder          // nil in the untraced run
	mons  []*monitor.Monitor // per node, traced run only
	dir   string             // persistence directory, or ""
	// closeTransport releases the substrate after the nodes are closed.
	closeTransport func() error
}

// close tears the system down: nodes first, then the substrate, then
// the persistence directory.
func (e *env) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, n := range e.nodes {
		keep(n.Close())
	}
	if e.closeTransport != nil {
		keep(e.closeTransport())
	}
	if e.dir != "" {
		keep(os.RemoveAll(e.dir))
	}
	return first
}

// deliver runs one delivery pass: everything in flight, and everything
// those deliveries send, is handled before it returns.
func (e *env) deliver() error {
	tok := e.rec.begin(spanRun, 0, 0)
	defer e.rec.end(tok)
	if e.wrap == nil {
		for _, det := range e.dets {
			if _, err := det.Run(stepBudget); err != nil {
				return err
			}
		}
		return nil
	}
	if err := e.wrap.quiesce(); err != nil {
		return err
	}
	return e.wrap.failure()
}

// stepBudget bounds one delivery pass on the bare simulator, like
// Cluster.Run's own budget: exhausting it means a propagation that
// never reaches a fixpoint.
const stepBudget = 10_000_000

// collectAll runs one local collection on each node, then delivers.
func (e *env) collectAll(nodes []*causalgc.Node) error {
	for _, n := range nodes {
		if err := e.collect(n); err != nil {
			return err
		}
	}
	return e.deliver()
}

func (e *env) collect(n *causalgc.Node) error {
	tok := e.rec.begin(spanCollect, 0, 0)
	_, err := n.Collect()
	e.rec.end(tok)
	return err
}

// refreshAll runs one refresh round on each node, then delivers.
func (e *env) refreshAll(nodes []*causalgc.Node) error {
	for _, n := range nodes {
		tok := e.rec.begin(spanRefresh, 0, 0)
		err := n.Refresh()
		e.rec.end(tok)
		if err != nil {
			return err
		}
	}
	return e.deliver()
}

func (e *env) totalObjects() int {
	total := 0
	for _, n := range e.nodes {
		total += n.NumObjects()
	}
	return total
}

// settleCap bounds the collect rounds of one settle.
const settleCap = 256

// settle is the benchmark's one settle loop, used by every workload
// with tracing on and off: deliver, then collect everywhere and deliver
// again until a full round reclaims nothing. It returns the number of
// collect rounds.
func (e *env) settle() (int, error) {
	if err := e.deliver(); err != nil {
		return 0, err
	}
	for round := 1; round <= settleCap; round++ {
		before := e.totalObjects()
		if err := e.collectAll(e.nodes); err != nil {
			return round, err
		}
		if e.totalObjects() == before {
			return round, nil
		}
	}
	return settleCap, fmt.Errorf("settle: still reclaiming after %d rounds", settleCap)
}

func (e *env) oracleWorlds() [][]*causalgc.Node {
	if e.worlds == nil {
		return [][]*causalgc.Node{e.nodes}
	}
	return e.worlds
}

// drainCap bounds the refresh rounds a fault-free drain may need.
const drainCap = 8

// drainClean settles the system and demands an oracle-clean verdict,
// running refresh rounds in between if garbage is left. It returns the
// refresh rounds used.
func (e *env) drainClean() (int, error) {
	for round := 0; ; round++ {
		if _, err := e.settle(); err != nil {
			return round, err
		}
		clean := true
		for _, world := range e.oracleWorlds() {
			rep := causalgc.Check(world...)
			if !rep.Safe() || (!rep.Clean() && round == drainCap) {
				return round, fmt.Errorf("oracle not clean after drain (%d refresh rounds): %v", round, rep)
			}
			clean = clean && rep.Clean()
		}
		if clean {
			return round, nil
		}
		if err := e.refreshAll(e.nodes); err != nil {
			return round, err
		}
	}
}

// kindStats sums the per-kind traffic counters of the substrate.
func (e *env) kindStats() map[string]transport.KindStats {
	out := make(map[string]transport.KindStats)
	for _, tr := range e.under {
		for kind, k := range tr.Stats().Snapshot() {
			s := out[kind]
			s.Sent += k.Sent
			s.Delivered += k.Delivered
			s.Dropped += k.Dropped
			s.Duplicated += k.Duplicated
			s.Bytes += k.Bytes
			out[kind] = s
		}
	}
	return out
}

// preload builds the workload's stated live heap on every node: live
// objects per site as chains of 16 under the root, one batch per chain.
// It is part of set-up; the objects stay reachable for the whole run.
func (e *env) preload(live int) error {
	const chain = 16
	for _, n := range e.nodes {
		for made := 0; made < live; {
			b := n.Batch()
			holder := b.Root()
			for i := 0; i < chain && made < live; i++ {
				holder = b.NewLocal(holder)
				made++
			}
			if err := b.Commit(); err != nil {
				return fmt.Errorf("preload site %v: %w", n.ID(), err)
			}
		}
	}
	return e.deliver()
}

// observer implements causalgc.Observer: it totals collections and
// times the removal of the garbage structures the driver registers.
// Callbacks run under a node's lock, so they only touch this struct.
type observer struct {
	rec  *recorder // traced run: tells which collections ran inside commits
	pace *pace     // puts reclamation times at reference speed

	mu          sync.Mutex
	watch       map[causalgc.ClusterID]*structure
	structures  []*structure
	collections int
	marked      int
	swept       int
	// scannedInCommits counts the objects visited (marked or swept) by
	// collections that ran inside a commit span.
	scannedInCommits int
	// since, when set, times every removal from that moment (churn-faults,
	// whose cutting commits happen inside causalgc.Churn).
	since                 time.Time
	removals, rawRemovals []int64 // those samples, ns
}

// structure is one piece of garbage whose reclamation is timed: a set
// of clusters that all become unreachable at one cutting commit.
type structure struct {
	pending int       // clusters not yet removed
	cut     time.Time // return of the cutting commit
	last    time.Time // removal of the last cluster
	ratio   float64   // pace ratio at that removal
}

func newObserver(r *run) *observer {
	return &observer{rec: r.rec, pace: r.pace, watch: make(map[causalgc.ClusterID]*structure)}
}

// expect registers a structure before its cutting commit is issued, so
// a removal can never race the registration.
func (o *observer) expect(clusters ...causalgc.ClusterID) *structure {
	s := &structure{pending: len(clusters)}
	o.mu.Lock()
	for _, cl := range clusters {
		o.watch[cl] = s
	}
	o.structures = append(o.structures, s)
	o.mu.Unlock()
	return s
}

// cutAt stamps the return of the cutting commit.
func (o *observer) cutAt(s *structure, t time.Time) {
	o.mu.Lock()
	s.cut = t
	o.mu.Unlock()
}

func (o *observer) ClusterRemoved(_ causalgc.SiteID, cl causalgc.ClusterID) {
	now := time.Now()
	o.mu.Lock()
	if !o.since.IsZero() {
		d := now.Sub(o.since)
		o.rawRemovals = append(o.rawRemovals, int64(d))
		o.removals = append(o.removals, int64(float64(d)*o.pace.ratio()))
	}
	if s := o.watch[cl]; s != nil {
		delete(o.watch, cl)
		s.pending--
		s.last, s.ratio = now, o.pace.ratio()
	}
	o.mu.Unlock()
}

func (o *observer) Collected(_ causalgc.SiteID, st causalgc.CollectStats) {
	inCommit := o.rec.within(spanCommit)
	o.mu.Lock()
	if inCommit {
		o.scannedInCommits += st.Marked + st.Swept
	}
	o.collections++
	o.marked += st.Marked
	o.swept += st.Swept
	o.mu.Unlock()
}

// timeRemovalsFrom makes every cluster removed from now on a
// reclamation sample timed from since; the zero time stops that.
func (o *observer) timeRemovalsFrom(since time.Time) {
	o.mu.Lock()
	o.since = since
	o.mu.Unlock()
}

// reclaimLatencies returns, in nanoseconds, cut → last removal for
// every registered structure, at reference speed and as the clock read
// it, and how many structures were never fully removed.
func (o *observer) reclaimLatencies() (lat, raw []int64, unreclaimed int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	lat, raw = append(lat, o.removals...), append(raw, o.rawRemovals...)
	for _, s := range o.structures {
		if s.pending > 0 || s.cut.IsZero() {
			unreclaimed++
			continue
		}
		// On a concurrent substrate the removal can land just before the
		// cutting call returns to the client.
		d := max(s.last.Sub(s.cut), 0)
		raw = append(raw, int64(d))
		lat = append(lat, int64(float64(d)*s.ratio))
	}
	return lat, raw, unreclaimed
}

// counters is a copy of the observer's totals.
type counters struct {
	collections, marked, swept, scannedInCommits int
}

func (o *observer) counters() counters {
	o.mu.Lock()
	defer o.mu.Unlock()
	return counters{o.collections, o.marked, o.swept, o.scannedInCommits}
}

// timeline records (operations done, time) marks of one client, from
// which the drift ratio is read: throughput of the last quarter of the
// operations over throughput of the first quarter. Its clock runs at
// reference speed (pace.go) and stops during the client's bursts.
type timeline struct {
	pc    *pacer
	prev  time.Time     // of the last mark
	spent time.Duration // the pacer's burst time at the last mark
	now   float64       // reference-speed nanoseconds since begin
	ops   []int
	at    []float64
}

func (t *timeline) begin(pc *pacer) { t.pc, t.prev, t.spent = pc, time.Now(), pc.spent }

func (t *timeline) mark(opsDone int) {
	now := time.Now()
	work := now.Sub(t.prev) - (t.pc.spent - t.spent)
	t.now += float64(work) * t.pc.p.ratio()
	t.prev, t.spent = now, t.pc.spent
	t.ops = append(t.ops, opsDone)
	t.at = append(t.at, t.now)
}

// when interpolates the elapsed time at which ops operations were done.
func (t *timeline) when(ops float64) float64 {
	i := sort.Search(len(t.ops), func(i int) bool { return float64(t.ops[i]) >= ops })
	if i == len(t.ops) {
		return t.at[len(t.at)-1]
	}
	prevOps, prevAt := 0.0, 0.0
	if i > 0 {
		prevOps, prevAt = float64(t.ops[i-1]), t.at[i-1]
	}
	span := float64(t.ops[i]) - prevOps
	if span <= 0 {
		return t.at[i]
	}
	return prevAt + (t.at[i]-prevAt)*(ops-prevOps)/span
}

// drift is first-quarter time over last-quarter time: equal operation
// counts, so it equals last-quarter throughput over first-quarter.
func (t *timeline) drift() float64 {
	if len(t.ops) == 0 {
		return 0
	}
	total := float64(t.ops[len(t.ops)-1])
	first := t.when(total / 4)
	last := t.when(total) - t.when(3*total/4)
	if last <= 0 {
		return 0
	}
	return first / last
}

// heapMiB is the retained heap after a forced collection.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile returns the p-th percentile (0..100) of sorted samples by
// the nearest-rank rule.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.9999999) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
