package sim

import (
	"math/rand"
	"testing"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
	"causalgc/internal/wire"
)

// This file is the grouping-equivalence lane: there is one commit path,
// and the SAME seeded mutator op stream is executed through it twice —
// once as n one-op commits (the singleton Site methods: one lock, one
// journal record and one coalescing window per op) and once as a few
// multi-op ApplyBatch commits (one of each per group) — under message
// drops, duplication, reordering and a kill-and-restart crash. Grouping
// is the only variable: the two runs must mint identical references,
// never violate safety, and converge to the same oracle verdict (clean)
// once the network heals.

// Argument selectors of the symbolic plan: a plan references objects it
// will create by pool index (creations of earlier groups) or by
// deferred in-group index, so one plan replays against either
// execution mode.
const (
	selNone     = iota
	selRoot     // the acting site's root object
	selSiteRoot // another site's root object
	selPool     // a pooled reference from an earlier group
	selGroup    // deferred: the result of an earlier op of this group
)

type batchArgSel struct {
	kind int
	pool int        // selPool: pool index
	grp  int        // selGroup: 1-based op index
	site ids.SiteID // selSiteRoot
}

type batchPlanOp struct {
	kind            wire.OpKind
	holder, to, tgt batchArgSel
	site            ids.SiteID // NewRemote target site
}

type batchPlanGroup struct {
	site           ids.SiteID
	ops            []batchPlanOp
	steps          int        // messages to deliver after the group
	crash, restart ids.SiteID // fault events before the group (0: none)
}

// makeBatchPlan generates a seeded symbolic op stream. Bookkeeping is
// conservative — holders are always the acting root, targets are only
// references the acting root provably still holds — so every group
// stages cleanly in both modes and the two executions stay
// op-for-op identical.
func makeBatchPlan(seed int64, sites, rounds int) []batchPlanGroup {
	rng := rand.New(rand.NewSource(seed))
	type entry struct {
		owner   ids.SiteID // the root that holds it
		objSite ids.SiteID // where the object lives
		alive   bool
	}
	var pool []entry
	crashed := ids.NoSite
	plan := make([]batchPlanGroup, 0, rounds)
	for round := 0; round < rounds; round++ {
		g := batchPlanGroup{steps: rng.Intn(30)}
		if round == rounds/3 {
			crashed = ids.SiteID(1 + rng.Intn(sites))
			g.crash = crashed
		}
		if round == rounds/3+3 {
			g.restart = crashed
			crashed = ids.NoSite
		}
		s := ids.SiteID(1 + rng.Intn(sites))
		for s == crashed {
			s = ids.SiteID(1 + rng.Intn(sites))
		}
		g.site = s
		// Only entries that existed before this group may be referenced
		// by pool index; this group's own creates are referenced with
		// deferred in-group indices (the executor's pool grows after the
		// group commits).
		poolBase := len(pool)
		owned := func() []int {
			var out []int
			for i, e := range pool[:poolBase] {
				if e.alive && e.owner == s {
					out = append(out, i)
				}
			}
			return out
		}
		otherSite := func() ids.SiteID {
			x := ids.SiteID(1 + rng.Intn(sites))
			for x == s {
				x = ids.SiteID(1 + rng.Intn(sites))
			}
			return x
		}
		var groupCreates []int // 0-based in-group op indices that create
		k := 1 + rng.Intn(6)
		for i := 0; i < k; i++ {
			newLocal := func() {
				g.ops = append(g.ops, batchPlanOp{kind: wire.OpNewLocal, holder: batchArgSel{kind: selRoot}})
				pool = append(pool, entry{owner: s, objSite: s, alive: true})
				groupCreates = append(groupCreates, len(g.ops)-1)
			}
			// pickTarget chooses something root s still holds: an earlier
			// create of this group (deferred) or a pooled owned entry.
			pickTarget := func() (batchArgSel, bool) {
				if len(groupCreates) > 0 && rng.Intn(2) == 0 {
					return batchArgSel{kind: selGroup, grp: groupCreates[rng.Intn(len(groupCreates))] + 1}, true
				}
				if ow := owned(); len(ow) > 0 {
					return batchArgSel{kind: selPool, pool: ow[rng.Intn(len(ow))]}, true
				}
				return batchArgSel{}, false
			}
			switch roll := rng.Intn(100); {
			case roll < 30:
				newLocal()
			case roll < 50: // NewRemote
				x := otherSite()
				g.ops = append(g.ops, batchPlanOp{kind: wire.OpNewRemote, holder: batchArgSel{kind: selRoot}, site: x})
				pool = append(pool, entry{owner: s, objSite: x, alive: true})
				groupCreates = append(groupCreates, len(g.ops)-1)
			case roll < 72: // SendRef
				tgt, ok := pickTarget()
				if !ok {
					newLocal()
					continue
				}
				var to batchArgSel
				switch rng.Intn(3) {
				case 0: // another site's root
					to = batchArgSel{kind: selSiteRoot, site: otherSite()}
				case 1: // a locally created pooled object (exists now)
					local := -1
					for _, i := range owned() {
						if pool[i].objSite == s {
							local = i
							break
						}
					}
					if local >= 0 {
						to = batchArgSel{kind: selPool, pool: local}
					} else {
						to = batchArgSel{kind: selSiteRoot, site: otherSite()}
					}
				default: // a deferred in-group create (possibly remote)
					if len(groupCreates) > 0 {
						to = batchArgSel{kind: selGroup, grp: groupCreates[rng.Intn(len(groupCreates))] + 1}
					} else {
						to = batchArgSel{kind: selSiteRoot, site: otherSite()}
					}
				}
				g.ops = append(g.ops, batchPlanOp{kind: wire.OpSendRef, holder: batchArgSel{kind: selRoot}, to: to, tgt: tgt})
			case roll < 82: // AddRef
				tgt, ok := pickTarget()
				if !ok {
					newLocal()
					continue
				}
				g.ops = append(g.ops, batchPlanOp{kind: wire.OpAddRef, holder: batchArgSel{kind: selRoot}, tgt: tgt})
			default: // DropRefs of an owned pooled entry
				ow := owned()
				if len(ow) == 0 {
					newLocal()
					continue
				}
				i := ow[rng.Intn(len(ow))]
				pool[i].alive = false
				g.ops = append(g.ops, batchPlanOp{kind: wire.OpDropRefs, holder: batchArgSel{kind: selRoot}, tgt: batchArgSel{kind: selPool, pool: i}})
			}
		}
		plan = append(plan, g)
	}
	return plan
}

// execBatchPlan runs one plan against a fresh durable world — batched
// or op by op, every site striped into the given number of lock shards
// — and returns the final pooled references (for cross-mode and
// cross-width comparison) and the world for verdicts.
func execBatchPlan(t *testing.T, plan []batchPlanGroup, seed int64, sites int, dir string, batched bool, shards int) (*World, []heap.Ref) {
	t.Helper()
	faults := netsim.Faults{Seed: seed, DropProb: 0.15, DupProb: 0.05, Reorder: true}
	w, err := newWorld(sites, faults, site.DefaultOptions(), dir, 32, shards)
	if err != nil {
		t.Fatal(err)
	}
	var pool []heap.Ref
	crashed := false
	for gi, g := range plan {
		if g.crash != ids.NoSite {
			if err := w.Crash(g.crash); err != nil {
				t.Fatalf("group %d: crash: %v", gi, err)
			}
			crashed = true
		}
		if g.restart != ids.NoSite {
			if err := w.Restart(g.restart); err != nil {
				t.Fatalf("group %d: restart: %v", gi, err)
			}
			crashed = false
		}
		rt := w.Site(g.site)
		root := rt.Root()
		groupRefs := make([]heap.Ref, len(g.ops))
		resolve := func(sel batchArgSel) (heap.Ref, int) {
			switch sel.kind {
			case selRoot:
				return root, 0
			case selSiteRoot:
				return w.Site(sel.site).Root(), 0
			case selPool:
				return pool[sel.pool], 0
			case selGroup:
				return heap.NilRef, sel.grp
			}
			return heap.NilRef, 0
		}
		ops := make([]wire.BatchOp, len(g.ops))
		for i, po := range g.ops {
			op := wire.BatchOp{Op: wire.OpRecord{Kind: po.kind, Site: po.site}}
			var ref heap.Ref
			ref, op.HolderFrom = resolve(po.holder)
			op.Op.Holder = ref.Obj
			op.Op.To, op.ToFrom = resolve(po.to)
			op.Op.Target, op.TargetFrom = resolve(po.tgt)
			ops[i] = op
		}
		if batched {
			refs, err := rt.ApplyBatch(ops)
			if err != nil {
				t.Fatalf("group %d (site %v): batched commit: %v", gi, g.site, err)
			}
			copy(groupRefs, refs)
		} else {
			for i, bop := range ops {
				op := bop.Op
				if bop.HolderFrom > 0 {
					op.Holder = groupRefs[bop.HolderFrom-1].Obj
				}
				if bop.ToFrom > 0 {
					op.To = groupRefs[bop.ToFrom-1]
				}
				if bop.TargetFrom > 0 {
					op.Target = groupRefs[bop.TargetFrom-1]
				}
				var err error
				switch op.Kind {
				case wire.OpNewLocal:
					groupRefs[i], err = rt.NewLocal(op.Holder)
				case wire.OpNewRemote:
					groupRefs[i], err = rt.NewRemote(op.Holder, op.Site)
				case wire.OpSendRef:
					err = rt.SendRef(op.Holder, op.To, op.Target)
				case wire.OpAddRef:
					_, err = rt.Apply(op)
				case wire.OpDropRefs:
					err = rt.DropRefs(op.Holder, op.Target)
				}
				if err != nil {
					t.Fatalf("group %d op %d (site %v): singleton %v: %v", gi, i, g.site, op.Kind, err)
				}
			}
		}
		// Pool appends mirror the plan's: one entry per create op, in
		// op order.
		for i, po := range g.ops {
			if po.kind == wire.OpNewLocal || po.kind == wire.OpNewRemote {
				pool = append(pool, groupRefs[i])
			}
		}
		for i := 0; i < g.steps && w.Step(); i++ {
		}
		// Safety is only meaningful at drained points (an in-flight
		// creation legitimately looks dangling): periodically drain —
		// with one refresh round to re-ship mutator frames a crash
		// window dropped — and check. Identical in both modes.
		if gi%7 == 6 && !crashed {
			run(t, w)
			if err := w.RefreshAll(); err != nil {
				t.Fatal(err)
			}
			if rep := w.Check(); !rep.Safe() {
				t.Fatalf("group %d: SAFETY VIOLATION (batched=%v): %v", gi, batched, rep)
			}
		}
	}
	// Heal and converge: faults off, refresh (re-ships anything lost,
	// including mutator frames dropped at a crashed site) and settle
	// until clean.
	w.Net().SetDropProb(0)
	w.Net().SetDupProb(0)
	settle(t, w)
	for r := 0; r < 8; r++ {
		refreshSettled(t, w, 1)
		rep := w.Check()
		if !rep.Safe() {
			t.Fatalf("SAFETY VIOLATION while healing (batched=%v, round %d): %v", batched, r, rep)
		}
		if rep.Clean() {
			break
		}
	}
	return w, pool
}

// TestBatchSingletonEquivalence runs the seeded fuzz lane across
// several seeds and stripe widths, comparing the op stream grouped as
// one-op commits against the same stream grouped as multi-op commits:
// identical minted references and identical (clean) oracle verdicts in
// both groupings, zero violations.
func TestBatchSingletonEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	const sites, rounds = 4, 30
	for _, shards := range crashWidths {
		for _, seed := range seeds {
			plan := makeBatchPlan(seed, sites, rounds)
			ws, poolS := execBatchPlan(t, plan, seed, sites, t.TempDir(), false, shards)
			wb, poolB := execBatchPlan(t, plan, seed, sites, t.TempDir(), true, shards)
			if len(poolS) != len(poolB) {
				t.Fatalf("shards %d seed %d: pool sizes diverge: singleton %d, batched %d", shards, seed, len(poolS), len(poolB))
			}
			for i := range poolS {
				if poolS[i] != poolB[i] {
					t.Fatalf("shards %d seed %d: pool[%d] diverges: singleton %v, batched %v", shards, seed, i, poolS[i], poolB[i])
				}
			}
			repS, repB := ws.Check(), wb.Check()
			if !repS.Clean() || !repB.Clean() {
				t.Fatalf("shards %d seed %d: verdicts diverge from clean: singleton %v, batched %v", shards, seed, repS, repB)
			}
			if repS.Live != repB.Live {
				t.Fatalf("shards %d seed %d: live counts diverge: singleton %d, batched %d", shards, seed, repS.Live, repB.Live)
			}
			t.Logf("shards %d seed %d: both modes clean with %d live objects", shards, seed, repS.Live)
			ws.Close()
			wb.Close()
		}
	}
}
