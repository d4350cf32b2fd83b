package core

// Stream identifies one acknowledged-retirement stream between a pair of
// sites (DESIGN.md §3.2). Every re-sendable frame a site ships carries a
// sequence number drawn from the per-(destination, stream) counter of its
// sender; the receiver acknowledges cumulatively per (sender-site,
// stream) with a FrameAck watermark, and the sender retires the frames
// it retained that the watermark covers — mutator frames, edge-asserts
// and edge-destruction bundles stop being re-shipped exactly, instead of
// being re-sent forever. The site retains and re-sends; the engine only
// sends.
type Stream uint8

// The three retirement streams. Stream zero means "untracked": local
// deliveries and frames from senders that retain nothing.
const (
	// StreamMut covers the outbound mutator frames of a durable site
	// (Create, RefTransfer).
	StreamMut Stream = iota + 1
	// StreamAssert covers edge-asserts (positive and negative).
	StreamAssert
	// StreamDestroy covers the edge-destruction bundles (own column Ē) of
	// destroyed edges, finalisation bundles included.
	StreamDestroy
)

// String names the stream for diagnostics and observer callbacks.
func (s Stream) String() string {
	switch s {
	case StreamMut:
		return "mut"
	case StreamAssert:
		return "assert"
	case StreamDestroy:
		return "destroy"
	}
	return "untracked"
}
