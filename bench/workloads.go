package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"causalgc"
	"causalgc/monitor"
	"causalgc/transport"
)

// workload is one named traffic mix. A fresh value is made per run and
// carries the run's generator state.
type workload interface {
	// build constructs the cluster (no live heap yet).
	build(r *run) (*env, error)
	// warm creates the working set the timed operations start from. It
	// runs after the live-heap preload and is part of set-up.
	warm(r *run) error
	// drive issues the timed operations.
	drive(r *run) error
	// after runs once the system has drained oracle-clean: steps that
	// are measured on their own (recovery, healing).
	after(r *run) error
}

// spec describes a workload to the runner. units is what --seconds
// scales: the run does perSecond × seconds of them, a count frozen at
// the commit that defined the benchmark so that every later run of the
// same seed and length does identical work.
type spec struct {
	name      string
	why       string
	sites     int
	live      int // live heap per site, preloaded as chains of 16
	unit      string
	perSecond float64
	round     int // the unit count is rounded up to a multiple of this
	make      func() workload
}

var specs = []spec{
	{
		name: "durable-tcp", sites: 3, live: 500, unit: "ops", perSecond: 1920, round: 1280,
		why: "the product path: loopback tcp, fsync per record, snapshots and recovery, so persist and wire dominate",
		make: func() workload {
			return &singletons{durable: true, block: durableBlock, working: 64, collectEvery: 256}
		},
	},
	{
		name: "inmem-batch", sites: 3, live: 4000, unit: "commits", perSecond: 48, round: 32,
		why:  "CPU-bound batch-64 commits from 2 clients over a large live heap on sharded nodes: heap, core and site only",
		make: func() workload { return &batches{} },
	},
	{
		name: "cycle-reclaim", sites: 9, live: 500, unit: "episodes", perSecond: 200, round: 100,
		why:  "the paper's headline: distributed cycles (Fig 3, DLL, rings) detected on a deterministic net; core and vclock",
		make: func() workload { return &cycles{} },
	},
	{
		name: "churn-faults", sites: 5, live: 200, unit: "slices", perSecond: 7.2, round: churnWorlds,
		why:  "mutation racing detection under 10% loss, 5% duplication and reordering: hints, acks and re-send dampers",
		make: func() workload { return &churn{} },
	},
	{
		name: "tcp-frames", sites: 3, live: 100, unit: "ops", perSecond: 4480, round: 320,
		why:  "one small frame per op over loopback tcp with a small heap, so the gob codec and socket path dominate",
		make: func() workload { return &singletons{block: framesBlock, working: 32, barrierEvery: 64} },
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// units is the frozen amount of work for a run of the given length.
func (s spec) units(seconds float64) int {
	n := int(s.perSecond*seconds + 0.5)
	n = (n + s.round - 1) / s.round * s.round
	return max(n, s.round)
}

// client is one closed-loop load generator goroutine: it times every
// commit it issues and keeps the pace (pace.go) between them.
type client struct {
	rec *recorder
	pc  *pacer
	// slow, when set (traced durable run), is told of every commit slower
	// than slowCommit so it can look for a checkpoint behind the stall.
	slow      func(latency time.Duration)
	lat       []int64 // commit latencies at reference speed, ns
	rawLat    []int64 // the same as the clock read them
	tl        timeline
	ops       int // operations attempted
	committed int // of those, operations issued by timed commit calls
	failed    int
	firstFail error
}

// slowCommit is the latency above which a traced commit is checked for
// an overlapping snapshot: well above a plain fsync, well below a
// checkpoint.
const slowCommit = 2 * time.Millisecond

// commit times one call into the facade that commits ops operations.
func (c *client) commit(ops int, f func() error) {
	tok := c.rec.begin(spanCommit, c.ops, 0)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	c.sample(d, c.pc.p.ratio())
	c.rec.end(tok)
	if c.slow != nil && d > slowCommit {
		c.slow(d)
	}
	c.ops += ops
	c.committed += ops
	if err != nil {
		c.failed += ops
		if c.firstFail == nil {
			c.firstFail = err
		}
	}
}

// sample records one commit latency and the pace ratio that puts it at
// reference speed.
func (c *client) sample(d time.Duration, ratio float64) {
	c.rawLat = append(c.rawLat, int64(d))
	c.lat = append(c.lat, int64(float64(d)*ratio))
}

// begin starts the client's timeline with a first burst.
func (c *client) begin() {
	c.pc.burst()
	c.tl.begin(c.pc)
}

// --- durable-tcp and tcp-frames: singleton ops from one client ----------

type opKind int

const (
	opNewLocal opKind = iota
	opNewRemote
	opSendRef
	opAddRef
	opDrop
)

// The op mixes, as balanced blocks: every block holds the stated shares
// exactly and is shuffled by the run's seed, so creates equal drops and
// the live heap stays flat whatever the seed.
var (
	// 30 % NewLocal, 10 % NewRemote, 10 % third-party SendRef, 10 %
	// AddRef, 40 % DropRefs of the oldest held reference.
	durableBlock = []opKind{
		opNewLocal, opNewLocal, opNewLocal, opNewRemote, opSendRef, opAddRef,
		opDrop, opDrop, opDrop, opDrop,
	}
	// 40 % NewRemote, 20 % third-party SendRef, 40 % DropRefs.
	framesBlock = []opKind{opNewRemote, opNewRemote, opSendRef, opDrop, opDrop}
)

// singletons drives site 1 with one singleton op per commit.
type singletons struct {
	durable      bool
	block        []opKind
	working      int // references held by the root before timing starts
	collectEvery int // Collect on every site each this many ops (0: never)
	barrierEvery int // delivery barrier each this many ops (0: never)

	rng        *rand.Rand
	held       []causalgc.Ref // FIFO of references site 1's root holds
	nextRemote int            // alternates the NewRemote target site

	// Recorded by after for the recovery metrics.
	recoverMs     float64 // at reference speed
	rawRecoverMs  float64
	recoveredObjs int
	walTailBytes  int64
	snapshotBytes int64
	walTailRecs   int
}

func (s *singletons) build(r *run) (*env, error) {
	m, err := newMesh(r.spec.sites)
	if err != nil {
		return nil, err
	}
	e := &env{obs: newObserver(r), rec: r.rec, wrap: wrap(m, r.rec), closeTransport: m.Close}
	for i := 1; i <= r.spec.sites; i++ {
		e.under = append(e.under, m.nets[transport.SiteID(i)])
	}
	opts := []causalgc.Option{causalgc.WithTransport(e.wrap), causalgc.WithObserver(e.obs)}
	if s.durable {
		if e.dir, err = os.MkdirTemp(r.cfg.tmpDir, "durable-*"); err != nil {
			e.close()
			return nil, err
		}
		opts = append(opts, causalgc.WithPersistence(e.dir))
	}
	if r.rec != nil {
		opts = append(opts, causalgc.WithMonitor(monitor.New(0)))
	}
	if _, err := e.newCluster(r.spec.sites, opts...); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// newCluster calls causalgc.NewCluster, which reports a persistence or
// option error by panicking.
func (e *env) newCluster(n int, opts ...causalgc.Option) (c *causalgc.Cluster, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("NewCluster: %v", p)
		}
	}()
	c = causalgc.NewCluster(n, opts...)
	for _, n := range c.Nodes() {
		e.nodes = append(e.nodes, n)
		if m := n.Monitor(); m != nil {
			e.mons = append(e.mons, m)
		}
	}
	return c, nil
}

func (s *singletons) warm(r *run) error {
	s.rng = rand.New(rand.NewSource(r.cfg.seed))
	n := r.env.nodes[0]
	for len(s.held) < s.working {
		for _, k := range s.block {
			if k != opNewLocal && k != opNewRemote {
				continue
			}
			ref, err := s.create(n, k)
			if err != nil {
				return err
			}
			s.held = append(s.held, ref)
		}
	}
	return r.env.deliver()
}

func (s *singletons) create(n *causalgc.Node, k opKind) (causalgc.Ref, error) {
	if k == opNewLocal {
		return n.NewLocal(n.Root().Obj)
	}
	s.nextRemote++
	return n.NewRemote(n.Root().Obj, causalgc.SiteID(2+s.nextRemote%2))
}

// thirdParty picks the oldest held remote object as receiver and the
// newest held object of another remote site as target. The receiver is
// dropped (FIFO) long before the target, so each object's last
// reference is still the root's.
func (s *singletons) thirdParty() (to, target causalgc.Ref, ok bool) {
	for _, ref := range s.held {
		if ref.Obj.Site != 1 {
			to = ref
			break
		}
	}
	for i := len(s.held) - 1; i >= 0; i-- {
		if site := s.held[i].Obj.Site; site != 1 && site != to.Obj.Site {
			return to, s.held[i], to.Valid()
		}
	}
	return to, target, false
}

func (s *singletons) drive(r *run) error {
	e, n := r.env, r.env.nodes[0]
	root := n.Root().Obj
	c := r.newClient()
	block := append([]opKind(nil), s.block...)
	c.begin()
	for c.ops < r.units {
		s.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			switch k {
			case opNewLocal, opNewRemote:
				c.commit(1, func() error {
					ref, err := s.create(n, k)
					if err == nil {
						s.held = append(s.held, ref)
					}
					return err
				})
			case opSendRef:
				to, target, ok := s.thirdParty()
				if !ok {
					return fmt.Errorf("generator: no third-party pair among %d held references", len(s.held))
				}
				c.commit(1, func() error { return n.SendRef(root, to, target) })
			case opAddRef:
				target := s.held[s.rng.Intn(len(s.held))]
				c.commit(1, func() error { return n.AddRef(root, target) })
			case opDrop:
				ref := s.held[0]
				s.held = s.held[1:]
				var st *structure
				if ref.Obj.Site != 1 {
					st = e.obs.expect(ref.Cluster)
				}
				c.commit(1, func() error { return n.DropRefs(root, ref) })
				if st != nil {
					e.obs.cutAt(st, time.Now())
				}
			}
			if c.ops%64 == 0 {
				c.tl.mark(c.ops)
			}
			if s.collectEvery > 0 && c.ops%s.collectEvery == 0 {
				for _, node := range e.nodes {
					if err := e.collect(node); err != nil {
						return err
					}
				}
			}
			if s.barrierEvery > 0 && c.ops%s.barrierEvery == 0 {
				if err := e.deliver(); err != nil {
					return err
				}
			}
			c.pc.tick()
		}
	}
	return nil
}

// after closes site 1 the way a crash would (no final snapshot) and
// times causalgc.Recover on its directory; the recovered node must hold
// exactly the objects the closed one held.
func (s *singletons) after(r *run) error {
	if !s.durable {
		return nil
	}
	e := r.env
	old := e.nodes[0]
	before := old.Objects()
	if err := old.Close(); err != nil {
		return fmt.Errorf("close site 1: %w", err)
	}
	dir := filepath.Join(e.dir, "site-1")
	s.walTailBytes, s.snapshotBytes = storeBytes(dir)
	opts := []causalgc.Option{causalgc.WithTransport(e.wrap), causalgc.WithPersistence(dir)}
	var mon *monitor.Monitor
	if r.rec != nil {
		mon = monitor.New(0)
		opts = append(opts, causalgc.WithMonitor(mon))
	}
	// Recover is one long call: it is put at reference speed by the
	// bursts on both sides of it.
	pc := newPace().pacer()
	pc.burst()
	ahead := pc.p.ratio()
	tok := r.rec.begin(spanRecover, 0, 0)
	t0 := time.Now()
	node, err := causalgc.Recover(1, opts...)
	s.rawRecoverMs = float64(time.Since(t0)) / float64(time.Millisecond)
	r.rec.end(tok)
	pc.burst()
	s.recoverMs = s.rawRecoverMs * (ahead + pc.p.ratio()) / 2
	if err != nil {
		return fmt.Errorf("recover site 1: %w", err)
	}
	e.nodes[0] = node
	if mon != nil {
		if p := mon.Snapshot().Persist; p != nil {
			s.walTailRecs = p.RecoveredRecords
		}
	}
	after := node.Objects()
	s.recoveredObjs = len(after)
	if !sameRefs(before, after) {
		r.problem("recovered site 1 holds %d objects, the closed one held %d (sets differ)", len(after), len(before))
	}
	// Recovery re-sends unconfirmed frames and runs a refresh round; the
	// system must come back to an oracle-clean rest.
	if _, err := e.drainClean(); err != nil {
		r.problem("after recovery: %v", err)
	}
	return nil
}

func sameRefs(a, b []causalgc.Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// storeBytes sums the WAL segment and snapshot file sizes of one site
// directory.
func storeBytes(dir string) (wal, snap int64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			continue
		}
		if filepath.Ext(ent.Name()) == ".snap" {
			snap += info.Size()
		} else {
			wal += info.Size()
		}
	}
	return wal, snap
}

// --- inmem-batch: batch-64 commits from two clients ----------------------

// chainRefs is one created chain: root → a → b → c → d, with d on
// another site.
type chainRefs struct{ a, b, c, d causalgc.Ref }

const (
	chainsPerCommit = 8  // 8 chains of 4 creates + 8 × 4 drops = 64 ops
	warmChains      = 16 // chains each client holds before timing starts
	batchOps        = 64
	batchCollect    = 16 // owner-site Collect each this many commits
)

type batches struct {
	held [2][]chainRefs // per client, FIFO
}

func (b *batches) build(r *run) (*env, error) {
	async := transport.NewAsync(transport.Faults{})
	e := &env{obs: newObserver(r), rec: r.rec, wrap: wrap(async, r.rec), under: []transport.Transport{async}}
	e.closeTransport = func() error { async.Close(); return nil }
	// NewCluster ignores WithShards for volatile nodes, so the nodes are
	// built one by one over the shared transport.
	for i := 1; i <= r.spec.sites; i++ {
		opts := []causalgc.Option{causalgc.WithTransport(e.wrap), causalgc.WithObserver(e.obs), causalgc.WithShards(2)}
		if r.rec != nil {
			m := monitor.New(0)
			e.mons = append(e.mons, m)
			opts = append(opts, causalgc.WithMonitor(m))
		}
		e.nodes = append(e.nodes, causalgc.NewNode(causalgc.SiteID(i), opts...))
	}
	return e, nil
}

// stageChain stages one chain on the batch; the refs resolve at
// Commit.
func stageChain(bt *causalgc.Batch, target causalgc.SiteID) [4]*causalgc.BatchRef {
	a := bt.NewLocal(bt.Root())
	b := bt.NewLocal(a)
	c := bt.NewLocal(b)
	return [4]*causalgc.BatchRef{a, b, c, bt.NewRemote(c, target)}
}

func resolve(staged [][4]*causalgc.BatchRef) []chainRefs {
	out := make([]chainRefs, len(staged))
	for i, s := range staged {
		out[i] = chainRefs{s[0].Ref(), s[1].Ref(), s[2].Ref(), s[3].Ref()}
	}
	return out
}

// remoteTarget alternates a client's remote creations over the two
// other sites.
func remoteTarget(clientSite, k int) causalgc.SiteID {
	return causalgc.SiteID((clientSite+k%2)%3 + 1)
}

func (b *batches) warm(r *run) error {
	for ci := 0; ci < 2; ci++ {
		n := r.env.nodes[ci]
		bt := n.Batch()
		var staged [][4]*causalgc.BatchRef
		for k := 0; k < warmChains; k++ {
			staged = append(staged, stageChain(bt, remoteTarget(ci+1, k)))
		}
		if err := bt.Commit(); err != nil {
			return err
		}
		b.held[ci] = resolve(staged)
	}
	return r.env.deliver()
}

func (b *batches) drive(r *run) error {
	e := r.env
	perClient := r.units / 2
	clients := [2]*client{r.newClient(), r.newClient()}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for ci := 0; ci < 2; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, n := clients[ci], e.nodes[ci]
			c.begin()
			for commit := 1; commit <= perClient; commit++ {
				bt := n.Batch()
				var staged [][4]*causalgc.BatchRef
				for k := 0; k < chainsPerCommit; k++ {
					staged = append(staged, stageChain(bt, remoteTarget(ci+1, commit+k)))
				}
				// Drop the oldest chains bottom-up: every drop is legal
				// when it applies and frees exactly one object.
				old := b.held[ci][:chainsPerCommit]
				b.held[ci] = b.held[ci][chainsPerCommit:]
				cuts := make([]*structure, len(old))
				for i, ch := range old {
					cuts[i] = e.obs.expect(ch.d.Cluster)
					bt.DropRefs(bt.Ref(ch.c), bt.Ref(ch.d))
					bt.DropRefs(bt.Ref(ch.b), bt.Ref(ch.c))
					bt.DropRefs(bt.Ref(ch.a), bt.Ref(ch.b))
					bt.DropRefs(bt.Root(), bt.Ref(ch.a))
				}
				c.commit(batchOps, bt.Commit)
				now := time.Now()
				for _, st := range cuts {
					e.obs.cutAt(st, now)
				}
				b.held[ci] = append(b.held[ci], resolve(staged)...)
				c.tl.mark(c.ops)
				if commit%batchCollect == 0 {
					if err := e.collect(n); err != nil {
						errs[ci] = err
						return
					}
				}
				c.pc.tick()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *batches) after(*run) error { return nil }

// --- cycle-reclaim: distributed cycles on the deterministic net ---------

type episodeKind int

const (
	epPaper episodeKind = iota
	epDLL8
	epRing8
	epRing4
	episodeKinds
)

// episodeOps is the number of mutator operations each builder and its
// detach issue (creates + reference transfers + drops).
var episodeOps = [episodeKinds]int{
	epPaper: 3 + 3 + 1,
	epDLL8:  8 + 14 + 8,
	epRing8: 8 + 8 + 7 + 1,
	epRing4: 4 + 4 + 3 + 1,
}

type cycles struct {
	cluster      *causalgc.Cluster
	settleRounds []int64
}

func (cy *cycles) build(r *run) (*env, error) {
	det := transport.NewDeterministic(transport.Faults{Seed: r.cfg.seed})
	r.rec.singleGoroutine()
	e := &env{obs: newObserver(r), rec: r.rec, wrap: wrap(det, r.rec), under: []transport.Transport{det}}
	opts := []causalgc.Option{causalgc.WithTransport(e.wrap), causalgc.WithObserver(e.obs)}
	if r.rec != nil {
		opts = append(opts, causalgc.WithMonitor(monitor.New(0)))
	}
	var err error
	if cy.cluster, err = e.newCluster(r.spec.sites, opts...); err != nil {
		return nil, err
	}
	return e, nil
}

func (cy *cycles) warm(*run) error { return nil }

func (cy *cycles) drive(r *run) error {
	e, c := r.env, r.newClient()
	// A seeded shuffle of equal shares of the four structures: the mix
	// is the same for every seed, only the order changes.
	order := make([]episodeKind, r.units)
	for i := range order {
		order[i] = episodeKind(i % int(episodeKinds))
	}
	rand.New(rand.NewSource(r.cfg.seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	c.begin()
	for i, kind := range order {
		var clusters []causalgc.ClusterID
		var detach func() error
		tok := e.rec.begin(spanRun, i, 0)
		var err error
		switch kind {
		case epPaper:
			var sc *causalgc.Scenario
			if sc, err = causalgc.BuildPaperScenario(cy.cluster); err == nil {
				clusters = []causalgc.ClusterID{sc.Obj2.Cluster, sc.Obj3.Cluster, sc.Obj4.Cluster}
				detach = sc.DropRootEdge
			}
		case epDLL8:
			var l *causalgc.List
			if l, err = causalgc.BuildDLL(cy.cluster, 8); err == nil {
				clusters, detach = listClusters(l), l.Detach
			}
		case epRing8, epRing4:
			k := 8
			if kind == epRing4 {
				k = 4
			}
			var l *causalgc.List
			if l, err = causalgc.BuildRing(cy.cluster, k); err == nil {
				clusters, detach = listClusters(l), l.DetachRing
			}
		}
		e.rec.end(tok)
		if err == nil {
			err = e.wrap.failure()
		}
		if err != nil {
			return fmt.Errorf("episode %d: build: %w", i, err)
		}
		// The builders' operations are issued inside causalgc; only the
		// cutting call is a commit the client can time.
		cutOps := 1
		if kind == epDLL8 {
			cutOps = 8 // Detach drops the root's reference to every element
		}
		c.ops += episodeOps[kind] - cutOps
		st := e.obs.expect(clusters...)
		c.commit(cutOps, detach)
		e.obs.cutAt(st, time.Now())
		rounds, err := e.settle()
		if err != nil {
			return fmt.Errorf("episode %d: %w", i, err)
		}
		cy.settleRounds = append(cy.settleRounds, int64(rounds))
		c.tl.mark(c.ops)
		if (i+1)%100 == 0 {
			if rep := causalgc.Check(e.nodes...); !rep.Clean() {
				r.problem("episode %d: oracle not clean: %v", i, rep)
			}
			r.checks++
		}
		c.pc.tick()
	}
	return nil
}

func listClusters(l *causalgc.List) []causalgc.ClusterID {
	out := make([]causalgc.ClusterID, len(l.Elems))
	for i, ref := range l.Elems {
		out[i] = ref.Cluster
	}
	return out
}

func (cy *cycles) after(*run) error { return nil }

// --- churn-faults: randomised churn under loss ---------------------------

const (
	churnSliceOps = 500
	convergeCap   = 64
	// churnWorlds independent clusters share a run's slices. Churn under
	// faults is chaotic: one cluster's message and byte counts differ by
	// about 30 % between seeds, and time follows them. Summing many
	// independent worlds divides that by the root of their number, and
	// keeps each world's history — whose cost grows faster than linearly
	// — short. A world runs an odd number of slices at the frozen size, so
	// the median slice is the middle one of every world and not a gap
	// between two of them.
	churnWorlds = 24
)

// churnWorld is one independent 5-site cluster on its own faulty net.
type churnWorld struct {
	cluster *causalgc.Cluster
	det     *transport.Deterministic
	nodes   []*causalgc.Node
}

type churn struct {
	worlds         []churnWorld
	stats          causalgc.ChurnStats
	convergeRounds int // summed over the worlds
	residual       int // garbage objects left when the networks healed
}

func (ch *churn) build(r *run) (*env, error) {
	r.rec.singleGoroutine()
	e := &env{obs: newObserver(r), rec: r.rec}
	for w := 0; w < churnWorlds; w++ {
		det := transport.NewDeterministic(transport.Faults{
			Seed: r.cfg.seed*churnWorlds + int64(w), DropProb: 0.10, DupProb: 0.05, Reorder: true,
		})
		e.dets = append(e.dets, det)
		e.under = append(e.under, det)
		opts := []causalgc.Option{causalgc.WithTransport(det), causalgc.WithObserver(e.obs)}
		if r.rec != nil {
			opts = append(opts, causalgc.WithMonitor(monitor.New(0)))
		}
		c, err := e.newCluster(r.spec.sites, opts...)
		if err != nil {
			e.close()
			return nil, err
		}
		ch.worlds = append(ch.worlds, churnWorld{cluster: c, det: det, nodes: c.Nodes()})
		e.worlds = append(e.worlds, c.Nodes())
	}
	return e, nil
}

func (ch *churn) warm(*run) error { return nil }

func (ch *churn) drive(r *run) error {
	e, c := r.env, r.newClient()
	c.begin()
	for wi, w := range ch.worlds {
		for slice := 0; slice < r.units/churnWorlds; slice++ {
			// Churn issues its operations inside causalgc, so a commit is
			// one slice; its latency is reported per operation.
			tok := e.rec.begin(spanCommit, c.ops, 0)
			t0 := time.Now()
			st, err := causalgc.Churn(w.cluster, causalgc.ChurnConfig{
				Seed: (r.cfg.seed*churnWorlds+int64(wi))*1_000_003 + int64(slice), Ops: churnSliceOps, StepsBetweenOps: 2,
			})
			d := time.Since(t0)
			e.rec.end(tok)
			if err != nil {
				return fmt.Errorf("world %d slice %d: %w", wi, slice, err)
			}
			// A slice outlasts paceEvery, so it is scaled by the bursts on
			// both sides of it.
			before := c.pc.p.ratio()
			c.pc.burst()
			c.sample(d/churnSliceOps, (before+c.pc.p.ratio())/2)
			// The slice's cutting commits are inside Churn, so the garbage
			// it leaves is timed from its return: every cluster the collect
			// and refresh round after it removes is one sample.
			e.obs.timeRemovalsFrom(time.Now())
			c.ops += churnSliceOps
			c.committed += churnSliceOps
			ch.stats.Creates += st.Creates
			ch.stats.Shares += st.Shares
			ch.stats.Drops += st.Drops
			ch.stats.Skipped += st.Skipped
			if err := e.collectAll(w.nodes); err != nil {
				return err
			}
			if err := e.refreshAll(w.nodes); err != nil {
				return err
			}
			e.obs.timeRemovalsFrom(time.Time{})
			c.tl.mark(c.ops)
			c.pc.tick()
			if rep := causalgc.Check(w.nodes...); !rep.Safe() {
				r.problem("world %d slice %d: oracle: dangling references: %v", wi, slice, rep)
			}
			r.checks++
		}
		// Heal, then count the refresh rounds convergence takes. This is
		// part of the timed run: residual garbage is not free.
		w.det.SetDropProb(0)
		w.det.SetDupProb(0)
		rep := causalgc.Check(w.nodes...)
		ch.residual += len(rep.Garbage)
		for rounds := 0; !rep.Clean(); rounds++ {
			if !rep.Safe() || rounds == convergeCap {
				r.problem("world %d: no convergence after healing (%d rounds): %v", wi, rounds, rep)
				break
			}
			if err := e.refreshAll(w.nodes); err != nil {
				return err
			}
			if err := e.collectAll(w.nodes); err != nil {
				return err
			}
			ch.convergeRounds++
			rep = causalgc.Check(w.nodes...)
			c.pc.tick()
		}
	}
	r.skipped = ch.stats.Skipped
	return nil
}

func (ch *churn) after(*run) error { return nil }
