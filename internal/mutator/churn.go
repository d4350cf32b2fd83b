package mutator

import (
	"math/rand"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
)

// ChurnConfig tunes the randomised workload driver.
type ChurnConfig struct {
	// Seed drives the operation choice (independent of the network seed).
	Seed int64
	// Ops is the number of mutator operations to perform.
	Ops int
	// StepsBetweenOps delivers up to this many random messages after
	// each performed operation, interleaving mutation with GGD traffic.
	// A skipped operation (counted in ChurnStats.Skipped) is followed by
	// no delivery, so two operations around a skip run back to back.
	// Zero delivers nothing (maximum raciness is exercised by the
	// network's own seed).
	StepsBetweenOps int
	// PCreate, PShare, PDrop weight the operation mix; they are
	// normalised internally. Defaults (when all zero): 4/4/3.
	PCreate, PShare, PDrop int
}

// ChurnStats reports what the driver did.
type ChurnStats struct {
	Creates, Shares, Drops, Skipped int
}

// Churn runs a randomised but always-legal mutator workload over the
// world: objects are created (locally or remotely) from holders the
// driver tracks, references are copied between holders (first-party and
// third-party transfers), and slots are dropped — including root slots,
// which is what manufactures distributed garbage, cycles included.
//
// The driver mirrors which references each object holds so it only issues
// legal operations; transfers still in flight can invalidate the mirror,
// in which case the operation is skipped (counted in Skipped).
func Churn(w World, cfg ChurnConfig) (ChurnStats, error) {
	if cfg.PCreate == 0 && cfg.PShare == 0 && cfg.PDrop == 0 {
		cfg.PCreate, cfg.PShare, cfg.PDrop = 4, 4, 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var stats ChurnStats

	nsites := len(w.Sites())
	// holdings mirrors object slots: holdings[o] lists refs o holds.
	holdings := make(map[ids.ObjectID][]heap.Ref)
	var holders []ids.ObjectID // objects that appeared as holders, unique
	inHolders := make(map[ids.ObjectID]struct{})
	refOf := make(map[ids.ObjectID]heap.Ref)

	addHolding := func(o ids.ObjectID, ref heap.Ref) {
		if _, ok := inHolders[o]; !ok {
			inHolders[o] = struct{}{}
			holders = append(holders, o)
		}
		holdings[o] = append(holdings[o], ref)
	}
	for _, s := range w.Sites() {
		root := s.Root()
		refOf[root.Obj] = root
	}

	total := cfg.PCreate + cfg.PShare + cfg.PDrop
	randomHolder := func() (ids.ObjectID, bool) {
		if len(holders) == 0 {
			return ids.NoObject, false
		}
		return holders[rng.Intn(len(holders))], true
	}

	for i := 0; i < cfg.Ops; i++ {
		roll := rng.Intn(total)
		switch {
		case roll < cfg.PCreate:
			// Create from a random root or known object.
			var holder ids.ObjectID
			if len(holders) == 0 || rng.Intn(3) == 0 {
				holder = w.Site(ids.SiteID(1 + rng.Intn(nsites))).Root().Obj
			} else if h, ok := randomHolder(); ok {
				holder = h
			}
			hs := w.Site(holder.Site)
			target := ids.SiteID(1 + rng.Intn(nsites))
			var ref heap.Ref
			var err error
			if target == holder.Site {
				ref, err = hs.NewLocal(holder)
			} else {
				ref, err = hs.NewRemote(holder, target)
			}
			if err != nil {
				// The holder may have been collected since it was learned;
				// the operation is simply not performable any more.
				stats.Skipped++
				continue
			}
			refOf[ref.Obj] = ref
			addHolding(holder, ref)
			stats.Creates++

		case roll < cfg.PCreate+cfg.PShare:
			// Copy a held reference to a random destination object.
			h, ok := randomHolder()
			if !ok {
				stats.Skipped++
				continue
			}
			held := holdings[h]
			if len(held) == 0 {
				stats.Skipped++
				continue
			}
			target := held[rng.Intn(len(held))]
			var destRef heap.Ref
			// Destination: random known object or a root.
			if len(holders) > 0 && rng.Intn(3) != 0 {
				d := holders[rng.Intn(len(holders))]
				destRef = refOf[d]
			}
			if !destRef.Valid() {
				destRef = w.Site(ids.SiteID(1 + rng.Intn(nsites))).Root()
			}
			if err := w.Site(h.Site).SendRef(h, destRef, target); err != nil {
				stats.Skipped++
				continue
			}
			addHolding(destRef.Obj, target)
			stats.Shares++

		default:
			// Drop all slots of one held ref, possibly from a root.
			h, ok := randomHolder()
			if !ok {
				stats.Skipped++
				continue
			}
			held := holdings[h]
			if len(held) == 0 {
				stats.Skipped++
				continue
			}
			idx := rng.Intn(len(held))
			target := held[idx]
			if err := w.Site(h.Site).DropRefs(h, target); err != nil {
				stats.Skipped++
				continue
			}
			// Remove every mirror entry for target at h (DropRefs drops
			// all slots).
			kept := held[:0]
			for _, r := range held {
				if r.Obj != target.Obj {
					kept = append(kept, r)
				}
			}
			holdings[h] = kept
			stats.Drops++
		}

		for s := 0; s < cfg.StepsBetweenOps; s++ {
			if !w.Step() {
				break
			}
		}
	}
	return stats, nil
}
