package core

import (
	"causalgc/internal/ids"
	"causalgc/internal/vclock"
)

// HandleDestroy processes an untracked edge-destruction control message
// (live traffic uses HandleDestroyFrame).
func (e *Engine) HandleDestroy(to, from ids.ClusterID, m DestroyMsg) {
	e.HandleDestroyFrame(to, from, m, 0, false)
}

// Evaluate forces one evaluation of a single process.
func (e *Engine) Evaluate(cl ids.ClusterID) {
	if p, ok := e.procs[cl]; ok {
		e.evaluate(p)
		e.Drain()
	}
}

// Acquaintances returns the process's current successors, sorted.
func (e *Engine) Acquaintances(cl ids.ClusterID) []ids.ClusterID {
	if p := e.procs[cl]; p != nil {
		return p.acq.sorted()
	}
	return nil
}

// copyBundle deep-copies a destroy bundle, so a test can hand one
// bundle to several engines; a nil vector stays nil.
func copyBundle(m DestroyMsg) DestroyMsg {
	cp := func(v vclock.Vector) vclock.Vector {
		if v == nil {
			return nil
		}
		return v.Clone()
	}
	return DestroyMsg{Auth: cp(m.Auth), Hints: cp(m.Hints), Processed: cp(m.Processed)}
}

// cloneProp deep-copies a propagation payload, so a test can hand one
// payload to several engines.
func cloneProp(m Propagation) Propagation {
	out := Propagation{Clock: m.Clock, Auth: m.Auth.Clone()}
	out.HintCols = append(out.HintCols, m.HintCols...)
	if m.Rows != nil {
		out.Rows = make(map[ids.ClusterID]RowGossip, len(m.Rows))
		for k, v := range m.Rows {
			g := RowGossip{Auth: v.Auth.Clone()}
			g.HintCols = append(g.HintCols, v.HintCols...)
			out.Rows[k] = g
		}
	}
	if m.OBs != nil {
		out.OBs = make(map[ids.ClusterID]OBGossip, len(m.OBs))
		for k, v := range m.OBs {
			out.OBs[k] = OBGossip{Auth: v.Auth.Clone(), Hints: v.Hints.Clone()}
		}
	}
	return out
}
