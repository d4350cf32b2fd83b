package site

import (
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
)

// resendBackoffCap is the ceiling, in refresh rounds, of the exponential
// re-send damper.
const resendBackoffCap = 64

// damper is the per-row re-send damper: an unacknowledged row is
// re-shipped on the first refresh round after it was sent, then at
// exponentially growing round intervals (1, 2, 4, ... up to
// resendBackoffCap), so long-lived systems stop re-shipping the same rows
// every round while a genuinely lost frame is still retried promptly.
// Its rounds are its ledger's Due walks, one per refresh round. The
// damper is deliberately not persisted: recovery resets it, so a
// restarted site re-ships everything once and the peers re-converge.
type damper struct {
	attempts uint8
	due      uint64 // first walk the next re-send is due at
}

// ready reports whether a re-send is due at the given walk.
func (b *damper) ready(round uint64) bool { return round >= b.due }

// bump schedules the next re-send after a send at the given walk.
func (b *damper) bump(round uint64) {
	interval := uint64(1)
	if b.attempts < 62 {
		b.attempts++
	}
	if b.attempts > 1 {
		interval = uint64(1) << (b.attempts - 1)
	}
	if interval > resendBackoffCap {
		interval = resendBackoffCap
	}
	b.due = round + interval
}

// ledger is the sender half of acknowledged retirement (DESIGN.md §3.2)
// for one retirement stream of one shard: every frame the shard sent in
// the stream that no cumulative FrameAck covers yet, kept exactly as it
// went out, with its re-send damper. A re-send ships the stored frame,
// whose sequence fills the same receiver-side gap.
//
// A row leaves only when a watermark covers it, so no sequence a peer
// waits for is ever abandoned, and there is no cap: a row toward a peer
// that never answers stays (the depth gauges show it). Each peer's rows
// sit in one slice in ascending sequence: Ack drops a prefix, and Due
// and Each walk the peers in first-contact order, each peer's rows by
// sequence. Each exports what a Put per row restores. Not safe for
// concurrent use.
type ledger struct {
	peers []peerRows // in first-contact order; a peer stays once known
	n     int        // outstanding rows
	walks uint64     // Due walks so far: the dampers' time base
}

// peerRows are the outstanding rows bound for one peer, by sequence.
type peerRows struct {
	peer ids.SiteID
	rows []row
}

type row struct {
	seq   uint64 // the frame's stream sequence, never zero
	frame netsim.Payload
	bo    damper
}

// Len is the number of outstanding rows.
func (l *ledger) Len() int { return l.n }

// Put retains frame as shipped to peer under the non-zero stream
// sequence seq, which must be above every sequence retained for peer:
// sequences are drawn from a counter, and a shard puts each frame as it
// sends it.
func (l *ledger) Put(peer ids.SiteID, seq uint64, frame netsim.Payload) {
	p := l.of(peer)
	if p == nil {
		l.peers = append(l.peers, peerRows{peer: peer})
		p = &l.peers[len(l.peers)-1]
	}
	p.rows = append(p.rows, row{seq: seq, frame: frame})
	l.n++
}

// of returns peer's rows, or nil while no row was ever put for it.
func (l *ledger) of(peer ids.SiteID) *peerRows {
	for i := range l.peers {
		if l.peers[i].peer == peer {
			return &l.peers[i]
		}
	}
	return nil
}

// Ack retires every row bound for peer whose sequence the cumulative
// watermark covers, and reports how many.
func (l *ledger) Ack(peer ids.SiteID, watermark uint64) int {
	p := l.of(peer)
	if p == nil {
		return 0
	}
	n := 0
	for n < len(p.rows) && p.rows[n].seq <= watermark {
		n++
	}
	clear(p.rows[:n]) // the retired frames are garbage now
	p.rows = p.rows[n:]
	l.n -= n
	return n
}

// ResetPeer re-arms the damper of every row bound for peer, so the next
// round re-ships them all (the peer restarted and may have lost
// undurable state).
func (l *ledger) ResetPeer(peer ids.SiteID) {
	if p := l.of(peer); p != nil {
		for i := range p.rows {
			p.rows[i].bo = damper{}
		}
	}
}

// Due is one refresh round's re-send walk: every row whose damper
// allows a re-send at this walk is handed to send and damped further;
// the rest are held back. It reports both counts. The walks are the
// dampers' rounds, so a ledger is walked once per refresh round.
func (l *ledger) Due(send func(peer ids.SiteID, frame netsim.Payload)) (sent, held int) {
	l.walks++
	for i := range l.peers {
		p := &l.peers[i]
		for j := range p.rows {
			r := &p.rows[j]
			if !r.bo.ready(l.walks) {
				held++
				continue
			}
			sent++
			send(p.peer, r.frame)
			r.bo.bump(l.walks)
		}
	}
	return sent, held
}

// Each visits the outstanding rows in walk order: the export order,
// which a Put per row restores.
func (l *ledger) Each(visit func(peer ids.SiteID, frame netsim.Payload, seq uint64)) {
	for _, p := range l.peers {
		for _, r := range p.rows {
			visit(p.peer, r.frame, r.seq)
		}
	}
}
