package core

import (
	"fmt"

	"causalgc/internal/ids"
	"causalgc/internal/vclock"
)

// EngineImage is the serialisable form of an Engine, used by the
// durability subsystem's snapshots. It may only be taken at a quiescent
// point (empty inbox): the site runtime snapshots after settling, so
// every queued GGD delivery has been processed. Control messages that
// raced ahead of their target's creation are in the image as what they
// merged into: the target's unborn process.
type EngineImage struct {
	Procs      []ProcImage
	Tombstones map[ids.ClusterID]uint64
	// Asserts is the re-send journal of un-acknowledged edge-asserts:
	// losing it to a crash would silently re-open the hint leak, so it
	// is part of the durable image, stream sequences included (a
	// recovered re-send must fill the same receiver-side gap).
	Asserts []AssertRowImage
	// Destroys holds the un-acknowledged edge-destruction bundles, in
	// retention order: the holder may be a tombstone, so the bundle is
	// nowhere else, and losing a stream sequence would orphan the
	// receiver's watermark.
	Destroys []DestroyImage
	Stats    Stats
}

// AssertRowImage is one journaled edge-assert awaiting acknowledgement.
type AssertRowImage struct {
	Holder, Target, Intro ids.ClusterID
	Seq                   uint64
	Stamp                 uint64
	// StreamSeq is the row's sequence in the assert retirement stream to
	// Target's site, drawn by its first send.
	StreamSeq uint64
}

// DestroyImage is the un-acknowledged bundle of one destruction of a
// remote edge.
type DestroyImage struct {
	Holder, Target ids.ClusterID
	M              DestroyMsg
	// Seq is the bundle's sequence in the destroy retirement stream.
	Seq uint64
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
		Stats:      e.stats,
	}
	for _, id := range e.Processes() {
		p := e.procs[id]
		img.Procs = append(img.Procs, ProcImage{
			ID:     p.id,
			Clock:  p.clock,
			Active: p.active,
			Born:   p.born,
			Acq:    p.acq.Sorted(),
			Log:    p.log.Export(),
		})
	}
	for cl, clock := range e.tombstone {
		img.Tombstones[cl] = clock
	}
	e.asserts.Each(func(row assertRow, stamp, _ uint64) {
		img.Asserts = append(img.Asserts, AssertRowImage{
			Holder: row.holder, Target: row.target, Intro: row.intro,
			Seq: row.seq, Stamp: stamp, StreamSeq: row.streamSeq,
		})
	})
	e.destroys.Each(func(ek edgeKey, m DestroyMsg, _ uint64) {
		img.Destroys = append(img.Destroys, DestroyImage{Holder: ek.holder, Target: ek.target, M: cloneDestroy(m), Seq: ek.seq})
	})
	return img, nil
}

// Restore rebuilds an engine from an image. The callbacks mirror New;
// the image is not retained. Re-send dampers are deliberately reset: a
// recovered site re-ships everything once so peers re-converge.
func Restore(site ids.SiteID, send Sender, onRemove func(ids.ClusterID), opts Options, img EngineImage) (*Engine, error) {
	e := New(site, send, onRemove, opts)
	e.stats = img.Stats
	for _, pi := range img.Procs {
		if pi.ID.Site != site {
			return nil, fmt.Errorf("core %v: restore foreign process %v", site, pi.ID)
		}
		e.procs[pi.ID] = &process{
			id:     pi.ID,
			clock:  pi.Clock,
			active: pi.Active,
			born:   pi.Born,
			log:    vclock.RestoreLog(pi.ID, pi.Log),
			acq:    ids.NewClusterSet(pi.Acq...),
		}
		if !pi.Born {
			e.unborn++
		}
	}
	for cl, clock := range img.Tombstones {
		e.tombstone[cl] = clock
	}
	for _, ai := range img.Asserts {
		e.asserts.Put(assertRow{holder: ai.Holder, target: ai.Target, intro: ai.Intro, seq: ai.Seq, streamSeq: ai.StreamSeq}, ai.Target.Site, ai.StreamSeq, ai.Stamp)
	}
	for _, di := range img.Destroys {
		e.destroys.Put(edgeKey{di.Holder, di.Target, di.Seq}, di.Target.Site, di.Seq, cloneDestroy(di.M))
	}
	return e, nil
}

func cloneDestroy(m DestroyMsg) DestroyMsg {
	return DestroyMsg{Auth: cloneVec(m.Auth), Hints: cloneVec(m.Hints), Processed: cloneVec(m.Processed)}
}

func cloneVec(v vclock.Vector) vclock.Vector {
	if v == nil {
		return nil
	}
	return v.Clone()
}
