// Package sim is the whole-system harness: it assembles N sites over the
// deterministic network simulator, drives workloads, runs the message
// schedule to quiescence, and cross-checks the system against the global
// oracle. Tests and benchmarks program against World.
package sim

import (
	"fmt"
	"path/filepath"

	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/oracle"
	"causalgc/internal/site"
	"causalgc/persist"
)

// DefaultStepBudget bounds one Run: the GGD fixpoint always terminates,
// so hitting the budget indicates a bug (non-monotone propagation).
const DefaultStepBudget = 2_000_000

// DefaultSettleRounds bounds Settle: detection latency is finite once
// the substrate is reliable, so needing more rounds indicates residual
// garbage only a refresh can recover (message loss).
const DefaultSettleRounds = 16

// World is a complete simulated system.
type World struct {
	net   *netsim.Sim
	sites []*site.Site
	opts  site.Options

	// shards is the lock-stripe width every site is built with.
	shards int

	// durable tracks the journals of a durable world (NewDurableWorld);
	// nil for a volatile world.
	durable []*durableSite
}

// durableSite is one site's persistence handle.
type durableSite struct {
	dir      string
	every    int
	journal  *site.Persist
	crashed  bool
	replayed int
}

// NewWorld builds n volatile one-shard sites (IDs 1..n) over a
// deterministic simulator.
func NewWorld(n int, faults netsim.Faults, opts site.Options) *World {
	return NewShardedWorld(n, faults, opts, 1)
}

// NewShardedWorld is NewWorld with every site striped over the given
// number of lock shards.
func NewShardedWorld(n int, faults netsim.Faults, opts site.Options, shards int) *World {
	w, _ := newWorld(n, faults, opts, "", 0, shards) // a volatile world cannot fail
	return w
}

// NewDurableWorld builds n durable one-shard sites journaling under
// dir/site-<id>, snapshotting every `every` records. Sites can then be
// killed and recovered with Crash/Restart — the kill-and-restart fault
// scenario. Journals run unsynced: an in-process "crash" cannot lose
// page-cache contents, so fsync would only slow the schedule search.
func NewDurableWorld(n int, faults netsim.Faults, opts site.Options, dir string, every int) (*World, error) {
	return newWorld(n, faults, opts, dir, every, 1)
}

// newWorld is the one constructor body: n sites of the given width,
// durable under dir when dir is non-empty, volatile otherwise.
func newWorld(n int, faults netsim.Faults, opts site.Options, dir string, every, shards int) (*World, error) {
	w := &World{net: netsim.NewSim(faults), opts: opts, shards: shards}
	for i := 1; i <= n; i++ {
		id := ids.SiteID(i)
		if dir == "" {
			w.sites = append(w.sites, site.NewSharded(id, w.net, opts, shards))
			continue
		}
		d := &durableSite{dir: filepath.Join(dir, fmt.Sprintf("site-%d", i)), every: every}
		s, err := w.open(id, d)
		if err != nil {
			return nil, err
		}
		w.sites = append(w.sites, s)
		w.durable = append(w.durable, d)
	}
	return w, nil
}

// open opens d's journal directory and recovers (or starts) site id
// from it.
func (w *World) open(id ids.SiteID, d *durableSite) (*site.Site, error) {
	j, err := site.OpenPersist(d.dir, site.PersistOptions{
		SnapshotEvery: d.every,
		Store:         persist.Options{NoSync: true},
	})
	if err != nil {
		return nil, err
	}
	s, err := site.RecoverSharded(id, w.net, w.opts, j, w.shards)
	if err != nil {
		j.Close()
		return nil, err
	}
	d.journal = j
	return s, nil
}

// Crash kills a durable site: its journal's files are closed with no
// final snapshot (exactly what SIGKILL leaves behind), its handler is
// torn down, and the in-flight GGD control messages addressed to it are
// lost. The site's runtime is unusable until Restart.
func (w *World) Crash(id ids.SiteID) error {
	d := w.durableOf(id)
	if d == nil {
		return fmt.Errorf("sim: site %v is not durable", id)
	}
	if d.crashed {
		return fmt.Errorf("sim: site %v already crashed", id)
	}
	if err := d.journal.Close(); err != nil {
		return err
	}
	d.crashed = true
	w.net.Unregister(id)
	w.net.DropPendingTo(id)
	return nil
}

// Restart recovers a crashed durable site from its journal directory
// and re-registers it on the network.
func (w *World) Restart(id ids.SiteID) error {
	d := w.durableOf(id)
	if d == nil {
		return fmt.Errorf("sim: site %v is not durable", id)
	}
	if !d.crashed {
		return fmt.Errorf("sim: site %v is not crashed", id)
	}
	s, err := w.open(id, d)
	if err != nil {
		return err
	}
	d.crashed = false
	d.replayed += d.journal.Store().Stats().RecoveredRecords
	w.sites[int(id)-1] = s
	return nil
}

// ReplayedRecords sums the WAL records replayed by all restarts so far.
func (w *World) ReplayedRecords() int {
	total := 0
	for _, d := range w.durable {
		total += d.replayed
	}
	return total
}

// Close closes the journals of a durable world.
func (w *World) Close() error {
	var first error
	for _, d := range w.durable {
		if !d.crashed {
			if err := d.journal.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

func (w *World) durableOf(id ids.SiteID) *durableSite {
	i := int(id) - 1
	if i < 0 || i >= len(w.durable) {
		return nil
	}
	return w.durable[i]
}

// Site returns the site instance of site id (1-based).
func (w *World) Site(id ids.SiteID) *site.Site {
	return w.sites[int(id)-1]
}

// Sites returns all site instances.
func (w *World) Sites() []*site.Site { return w.sites }

// Net exposes the simulator (fault control, stats).
func (w *World) Net() *netsim.Sim { return w.net }

// Step delivers one queued message, if any, and reports whether it did:
// the fine-grained interleaving knob used by randomised workloads.
func (w *World) Step() bool { return w.net.Step() }

// Run delivers queued messages until the network is quiet.
func (w *World) Run() error {
	_, err := w.net.Run(DefaultStepBudget)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// CollectAll runs one local collection on every site, then drains the
// resulting traffic.
func (w *World) CollectAll() error {
	for _, s := range w.sites {
		if _, err := s.Collect(); err != nil {
			return err
		}
	}
	return w.Run()
}

// RefreshAll runs one GGD refresh round on every site, then drains: the
// recovery mechanism for residual garbage after message loss (§5).
func (w *World) RefreshAll() error {
	for _, s := range w.sites {
		if err := s.Refresh(); err != nil {
			return err
		}
	}
	return w.Run()
}

// Settle drives the system to a stable state: deliver everything, collect
// everywhere, and repeat until a full round changes nothing. It bounds the
// number of rounds; detection latency is finite once the network is
// reliable.
func (w *World) Settle() error {
	if err := w.Run(); err != nil {
		return err
	}
	for round := 0; round < DefaultSettleRounds; round++ {
		before := w.totalObjects()
		if err := w.CollectAll(); err != nil {
			return err
		}
		if w.totalObjects() == before && w.net.Pending() == 0 {
			return nil
		}
	}
	return nil
}

func (w *World) totalObjects() int {
	n := 0
	for _, s := range w.sites {
		n += s.NumObjects()
	}
	return n
}

// TotalObjects returns the live object count across all sites.
func (w *World) TotalObjects() int { return w.totalObjects() }

// Check runs the global oracle.
func (w *World) Check() oracle.Report {
	views := make([]oracle.Site, len(w.sites))
	for i, s := range w.sites {
		views[i] = s
	}
	return oracle.Check(views...)
}
