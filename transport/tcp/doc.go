// Package tcp is the real-socket transport backend: causalgc sites in
// different OS processes exchange the same wire messages the in-memory
// backends carry, as length-prefixed frames over TCP. The package holds
// what is about sockets; the frame encoding is internal/wire's, and the
// per-site delivery queues and the idle test behind Drain are the ones
// the in-memory concurrent backend uses (internal/netsim).
//
// One Network serves one process. It listens on a single address for
// every site the process hosts, and dials one outgoing connection per
// remote peer, lazily, with automatic reconnect and exponential backoff —
// so peer processes may start in any order. Sends to sites registered on
// the same Network short-circuit through an in-memory queue and never
// touch a socket.
//
// Delivery matches the Transport contract: asynchronous with respect to
// Send, serialised per destination site (one delivery goroutine each),
// and at-most-once per send — a frame that cannot be written before Close
// is dropped, and so is a frame past the early buffer of a site that has
// not registered yet. The GGD control plane tolerates that by design (§5
// of the paper). A mutator frame is re-sent only by a durable sender;
// a volatile sender's lost frame stays lost (DESIGN.md §6).
package tcp
