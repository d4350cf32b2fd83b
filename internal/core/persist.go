package core

import (
	"fmt"

	"causalgc/internal/ids"
	"causalgc/internal/vclock"
)

// EngineImage is the serialisable form of an Engine, used by the
// durability subsystem's snapshots. It carries no Stats: the counters
// are per session and restart with a restored engine. It may only be
// taken at a quiescent point (empty inbox): the site runtime snapshots
// after settling, so every queued GGD delivery has been processed.
// Control messages that raced ahead of their target's creation are in
// the image as what they merged into: the target's unborn process. It
// holds no sent frame: the site retains those (DESIGN.md §3.2).
type EngineImage struct {
	Procs      []ProcImage
	Tombstones map[ids.ClusterID]uint64
}

// ProcImage is one process's state.
type ProcImage struct {
	ID     ids.ClusterID
	Clock  uint64
	Active bool
	// Born is false for a process that exists only because control
	// messages named it ahead of its creation message.
	Born bool
	Acq  []ids.ClusterID
	Log  vclock.LogImage
}

// Export renders the engine as an image sharing no state with it. It
// fails if deliveries are still queued (the caller must Drain first):
// snapshotting mid-cascade would bake a half-processed inbox into the
// image.
func (e *Engine) Export() (EngineImage, error) {
	if len(e.inbox) > 0 {
		return EngineImage{}, fmt.Errorf("core %v: export with %d queued deliveries", e.site, len(e.inbox))
	}
	img := EngineImage{
		Tombstones: make(map[ids.ClusterID]uint64, len(e.tombstone)),
	}
	for _, id := range e.Processes() {
		p := e.procs[id]
		img.Procs = append(img.Procs, ProcImage{
			ID:     p.id,
			Clock:  p.clock,
			Active: p.active,
			Born:   p.born,
			Acq:    p.acq.sorted(),
			Log:    p.log.Export(),
		})
	}
	for cl, clock := range e.tombstone {
		img.Tombstones[cl] = clock
	}
	return img, nil
}

// Restore rebuilds an engine from an image. The callbacks mirror New;
// the image is not retained.
func Restore(site ids.SiteID, send Sender, onRemove func(ids.ClusterID), opts Options, img EngineImage) (*Engine, error) {
	e := New(site, send, onRemove, opts)
	for _, pi := range img.Procs {
		if pi.ID.Site != site {
			return nil, fmt.Errorf("core %v: restore foreign process %v", site, pi.ID)
		}
		acq := make(outEdges, len(pi.Acq))
		for _, k := range pi.Acq {
			acq[k] = 0
		}
		e.procs[pi.ID] = &process{
			id:     pi.ID,
			clock:  pi.Clock,
			active: pi.Active,
			born:   pi.Born,
			log:    vclock.RestoreLog(pi.ID, pi.Log),
			acq:    acq,
		}
		if !pi.Born {
			e.unborn++
		}
	}
	for cl, clock := range img.Tombstones {
		e.tombstone[cl] = clock
	}
	return e, nil
}
