package vclock

import "causalgc/internal/ids"

// LogImage is the serialisable form of a Log, used by the durability
// subsystem's snapshots (see package persist and internal/wire). It
// captures everything Closure consults — the own vector, both halves of
// the hint set (pending *and* resolved bounds: forgetting the cleared
// bounds would let stale gossip re-arm resolved hints after recovery),
// the vector rows with their confirmation bits, and the on-behalf rows.
type LogImage struct {
	Own         Vector
	HintPending map[ids.ClusterID]Vector
	HintCleared map[ids.ClusterID]Vector
	VRows       map[ids.ClusterID]VRowImage
	OBs         map[ids.ClusterID]OBImage
}

// VRowImage is the serialisable form of a VRow.
type VRowImage struct {
	Auth      Vector
	HintCols  []ids.ClusterID
	Confirmed bool
}

// OBImage is the serialisable form of an OBRow.
type OBImage struct {
	Auth      Vector
	Hints     Vector
	Processed Vector
}

// Export renders the log as an image. The image shares no state with
// the log.
func (l *Log) Export() LogImage {
	img := LogImage{
		Own:         l.own.Clone(),
		HintPending: make(map[ids.ClusterID]Vector, len(l.ownHints.pending)),
		HintCleared: make(map[ids.ClusterID]Vector, len(l.ownHints.cleared)),
		VRows:       make(map[ids.ClusterID]VRowImage, len(l.vrows)),
		OBs:         make(map[ids.ClusterID]OBImage, len(l.ob)),
	}
	for col, v := range l.ownHints.pending {
		img.HintPending[col] = v.Clone()
	}
	for col, v := range l.ownHints.cleared {
		img.HintCleared[col] = v.Clone()
	}
	for p, r := range l.vrows {
		img.VRows[p] = VRowImage{Auth: r.Auth.Clone(), HintCols: r.HintCols.Sorted(), Confirmed: r.Confirmed}
	}
	for p, r := range l.ob {
		img.OBs[p] = OBImage{Auth: r.Auth.Clone(), Hints: r.Hints.Clone(), Processed: r.Processed.Clone()}
	}
	return img
}

// RestoreLog rebuilds a Log from an image. The log shares no state with
// the image. Its on-behalf rows share one fresh version, so the first
// propagation on an unmarked edge carries them.
func RestoreLog(owner ids.ClusterID, img LogImage) *Log {
	l := NewLog(owner)
	ver := l.bump()
	l.own = cloneOrNew(img.Own)
	for col, v := range img.HintPending {
		l.ownHints.pending[col] = v.Clone()
	}
	for col, v := range img.HintCleared {
		l.ownHints.cleared[col] = v.Clone()
	}
	for p, r := range img.VRows {
		l.vrows[p] = &VRow{Auth: cloneOrNew(r.Auth), HintCols: ids.NewClusterSet(r.HintCols...), Confirmed: r.Confirmed}
	}
	for p, r := range img.OBs {
		l.ob[p] = &OBRow{Auth: cloneOrNew(r.Auth), Hints: cloneOrNew(r.Hints), Processed: cloneOrNew(r.Processed), Ver: ver}
	}
	return l
}

func cloneOrNew(v Vector) Vector {
	if v == nil {
		return NewVector()
	}
	return v.Clone()
}
