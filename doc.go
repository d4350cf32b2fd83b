// Package causalgc is the public API of the causalgc distributed garbage
// collector: a reproduction-grown implementation of comprehensive Global
// Garbage Detection (GGD) by tracking causal dependencies of relevant
// mutator events (Louboutin & Cahill, ICDCS 1997). It detects and
// reclaims all distributed garbage — cycles spanning any number of sites
// included — without stop-the-world phases or global consensus, and
// tolerates loss, duplication and reordering of its control messages.
//
// # Model
//
// The system is a set of sites, each an independent address space with
// its own heap, local mark-sweep collector and GGD engine. Objects are
// containers of reference slots; references may cross site boundaries.
// Applications drive the mutator API of Node: create objects locally or
// on remote sites, copy held references to other objects (including
// third-party transfers), and drop them. Everything else — lazy
// log-keeping, dependency-vector propagation, garbage detection and
// reclamation — happens underneath.
//
// # Quickstart
//
// A Node is one site; a Cluster assembles several over a shared
// transport. The default Cluster transport is the deterministic
// in-memory simulator, which makes runs reproducible:
//
//	c := causalgc.NewCluster(3)
//	defer c.Close()
//	n1 := c.Node(1)
//	a, _ := n1.NewRemote(n1.Root().Obj, 2) // object on site 2
//	c.Run()                                // deliver messages
//	b, _ := c.Node(2).NewRemote(a.Obj, 3)  // object on site 3
//	c.Run()
//	c.Node(2).SendRef(a.Obj, b, a)         // cycle a ⇄ b across sites
//	c.Run()
//	n1.DropRefs(n1.Root().Obj, a)          // now {a,b} is distributed garbage
//	c.Settle()                             // GGD detects and reclaims it
//
// The same engine runs over real sockets: build each Node in its own
// process with WithTransport(tcp.New(...)) — see transport/tcp and
// cmd/causalgc-node.
//
// # Batched mutations
//
// Write-heavy workloads should group operations with Node.Batch: a
// committed Batch pays one lock acquisition, one write-ahead journal
// append (one fsync) and one coalesced
// wire envelope per destination site for the whole group, instead of
// each cost per operation. Creations return *BatchRef placeholders
// later ops of the same batch can chain onto (deferred reference
// resolution); the singleton mutator methods commit batches of one
// through the same commit path, so semantics are identical either way
// (DESIGN.md §3.3).
//
// # Reliability and retirement
//
// The GGD control plane tolerates loss, duplication and reordering by
// construction; what a fault costs is latency, never safety. State that
// must survive faults — journaled edge-asserts, edge-destruction
// bundles, finalisation bundles of removed clusters, and (on durable
// nodes) unconfirmed outbound mutator frames — is retained and re-sent
// by Refresh rounds until the receiving site acknowledges it with a
// cumulative FrameAck, at which point it is retired exactly
// (DESIGN.md §3.2). An exponential per-row damper (capped at 64 rounds)
// keeps long-lived systems from re-shipping the same rows every round,
// and after quiescence a refresh round re-ships nothing at all. There
// is no cap: a row leaves only when it is acknowledged, so nothing
// retained is ever lost, and state held for a peer that does not answer
// shows in the monitor's depth gauges (causalgc_outbox_depth and its
// siblings) until it does.
//
// # Structure
//
// Public packages: causalgc (Node, Cluster, workloads, oracle checks),
// causalgc/transport (the Transport interface and in-memory backends)
// and causalgc/transport/tcp (the socket backend). The experiments
// reproducing the paper's evaluation are tests in internal/sim. The
// protocol internals live under internal/ — see DESIGN.md for the algorithm
// reconstruction, ARCHITECTURE.md for the package/dataflow map and the
// frame lifecycle, and README.md for the quickstart.
package causalgc
