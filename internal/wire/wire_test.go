package wire

import (
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/vclock"
)

func TestKinds(t *testing.T) {
	tests := []struct {
		p    netsim.Payload
		kind string
	}{
		{Create{}, KindCreate},
		{RefTransfer{}, KindRef},
		{Destroy{}, KindDestroy},
		{Propagate{}, KindPropagate},
		{Assert{}, KindAssert},
		{FrameAck{}, KindFrameAck},
		{StreamAdvance{}, KindAdvance},
	}
	for _, tt := range tests {
		if got := tt.p.Kind(); got != tt.kind {
			t.Errorf("%T.Kind() = %q, want %q", tt.p, got, tt.kind)
		}
		if tt.p.ApproxSize() <= 0 {
			t.Errorf("%T.ApproxSize() = %d", tt.p, tt.p.ApproxSize())
		}
	}
}

func TestMutatorTrafficIsApplication(t *testing.T) {
	// Creation and reference transfer model reliable application RPC:
	// fault injection must skip them.
	if netsim.FaultEligible(Create{}) {
		t.Error("Create must be fault-exempt")
	}
	if netsim.FaultEligible(RefTransfer{}) {
		t.Error("RefTransfer must be fault-exempt")
	}
	// GGD control traffic is fault-eligible: that is where the paper's
	// robustness claims live. FrameAck included — a lost ack only costs a
	// redundant re-send.
	for _, p := range []netsim.Payload{Destroy{}, Propagate{}, Assert{}, FrameAck{}, StreamAdvance{}} {
		if !netsim.FaultEligible(p) {
			t.Errorf("%T must be fault-eligible", p)
		}
	}
}

func TestApproxSizeGrowsWithContent(t *testing.T) {
	c := ids.ClusterID{Site: 1, Seq: 1}
	small := Propagate{M: core.Propagation{Auth: vclock.Vector{}}}
	big := Propagate{M: core.Propagation{
		Auth: vclock.Vector{c: vclock.At(1)},
		Rows: map[ids.ClusterID]core.RowGossip{
			c: {Auth: vclock.Vector{c: vclock.At(1)}},
		},
		OBs: map[ids.ClusterID]core.OBGossip{
			c: {Auth: vclock.Vector{c: vclock.At(1)}, Hints: vclock.Vector{c: vclock.At(2)}},
		},
	}}
	if big.ApproxSize() <= small.ApproxSize() {
		t.Errorf("size not monotone: %d <= %d", big.ApproxSize(), small.ApproxSize())
	}
	d0 := Destroy{}
	d1 := Destroy{M: core.DestroyMsg{Auth: vclock.Vector{c: vclock.Eps(1)}, Hints: vclock.Vector{c: vclock.At(1)}}}
	if d1.ApproxSize() <= d0.ApproxSize() {
		t.Error("destroy size not monotone")
	}
}
