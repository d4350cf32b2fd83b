package site

import (
	"fmt"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
)

// durableSiteOf builds a durable site of the given width over a fresh
// directory, with site 2 a peer that never answers.
func durableSiteOf(t *testing.T, width int) (*Site, *Persist, *netsim.Sim) {
	t.Helper()
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	net.Register(2, func(ids.SiteID, netsim.Payload) {})
	p := openShardPersist(t, t.TempDir(), 1<<20)
	s, err := RecoverSharded(1, net, DefaultOptions(), p, width)
	if err != nil {
		t.Fatal(err)
	}
	return s, p, net
}

// TestPersistAckAppendsNothing: a FrameAck changes only re-send
// bookkeeping, so a durable site applies it — to every shard, retiring
// the rows it covers — and journals nothing, whether it arrives bare or
// inside an envelope, at every width.
func TestPersistAckAppendsNothing(t *testing.T) {
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			s, p, net := durableSiteOf(t, width)
			root := s.Root().Obj
			for i := 0; i < 2; i++ {
				a := mustRef(t)(s.NewLocal(root)) // rr: one anchor per shard
				_ = mustRef(t)(s.NewRemote(a.Obj, 2))
			}
			if _, err := net.Run(0); err != nil {
				t.Fatal(err)
			}
			if got := s.Depths().Outbox; got != 2 {
				t.Fatalf("%d outbox rows toward the peer, want 2", got)
			}
			before, acks := p.Store().Stats().Appends, s.FrameStats().AcksReceived
			s.handleNet(2, wire.FrameAck{Stream: core.StreamMut, Seq: 1})
			s.handleNet(2, wire.Envelope{Frames: []netsim.Payload{
				wire.FrameAck{Stream: core.StreamMut, Seq: 2},
				wire.FrameAck{Stream: core.StreamDestroy},
			}})
			if got := p.Store().Stats().Appends - before; got != 0 {
				t.Errorf("three received acks cost %d WAL appends, want 0", got)
			}
			if got := s.Depths().Outbox; got != 0 {
				t.Errorf("the acks left %d outbox rows, want 0", got)
			}
			if got := s.FrameStats().AcksReceived - acks; got != 3 {
				t.Errorf("three received acks counted %d times, want 3", got)
			}
		})
	}
}

// TestPersistEmptyEnvelopeAppendsNothing: an envelope with nothing to
// apply — no frame at all, or acknowledgements only — is no event, so
// a durable site journals nothing for it at any width.
func TestPersistEmptyEnvelopeAppendsNothing(t *testing.T) {
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			s, p, _ := durableSiteOf(t, width)
			before := p.Store().Stats().Appends
			s.handleNet(2, wire.Envelope{})
			s.handleNet(2, wire.Envelope{Frames: []netsim.Payload{wire.FrameAck{Stream: core.StreamAssert}}})
			if got := p.Store().Stats().Appends - before; got != 0 {
				t.Fatalf("an empty and an ack-only envelope cost %d WAL appends, want 0", got)
			}
		})
	}
}
