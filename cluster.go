package causalgc

import (
	"fmt"
	"path/filepath"
	"time"

	"causalgc/internal/sim"
	"causalgc/monitor"
	"causalgc/transport"
)

// Cluster assembles n nodes (site IDs 1..n) over one shared transport:
// the standard way to run a whole system in a single process. Without
// WithTransport the cluster runs over the deterministic in-memory
// simulator, so runs are reproducible; pass transport.NewDeterministic
// with a fault plan to inject loss, duplication, partitions or
// reordering, or transport.NewAsync for real in-process concurrency.
//
// A cluster over the deterministic default must be driven from a single
// goroutine (the simulator is single-threaded by design); over the
// async or TCP backends, concurrent use is safe.
//
// For multi-process systems build each Node separately over
// transport/tcp; Cluster is the single-process assembly.
type Cluster struct {
	tr    transport.Transport
	det   *transport.Deterministic // non-nil for the deterministic substrate
	ownTr bool
	nodes []*Node
}

// NewCluster builds n nodes over a shared transport. The options are
// applied to every node; a WithTransport option supplies the shared
// substrate (and leaves its ownership with the caller). With
// WithPersistence(dir) each node journals under dir/site-<id> — fresh
// directories start journaling, existing ones are recovered — and
// NewCluster panics on a persistence I/O error (build nodes with
// Recover directly to handle errors) and on an invalid option value
// (ErrBadOption); either panic value is an error wrapping the cause, so
// a recover() can match it with errors.Is.
func NewCluster(n int, opts ...Option) *Cluster {
	cfg := newConfig(opts)
	if err := cfg.validate(); err != nil {
		// The wrapped error value keeps the panic errors.Is-matchable.
		panic(fmt.Errorf("causalgc: NewCluster: %w", err))
	}
	ownTr := false
	if cfg.tr == nil {
		cfg.tr = transport.NewDeterministic(transport.Faults{Seed: 1})
		ownTr = true
	}
	c := &Cluster{tr: cfg.tr, ownTr: ownTr}
	c.det, _ = cfg.tr.(*transport.Deterministic)
	for i := 1; i <= n; i++ {
		id := SiteID(i)
		// One construction path for every node: the shared transport, a
		// per-site persistence subdirectory, and with WithMonitor a
		// per-node monitor (the caller's serves site 1, the rest are
		// fresh).
		nodeCfg := cfg
		if cfg.monitor != nil && i > 1 {
			nodeCfg.monitor = monitor.New(0)
		}
		if cfg.persistDir != "" {
			nodeCfg.persistDir = filepath.Join(cfg.persistDir, fmt.Sprintf("site-%d", i))
		}
		node, err := newNode(id, nodeCfg)
		if err != nil {
			c.Close()
			panic(fmt.Errorf("causalgc: NewCluster site %v: %w", id, err))
		}
		c.nodes = append(c.nodes, node)
	}
	return c
}

// Node returns the node of site id (IDs start at 1), or nil when the
// cluster hosts no such site.
func (c *Cluster) Node(id SiteID) *Node {
	if id < 1 || int(id) > len(c.nodes) {
		return nil
	}
	return c.nodes[int(id)-1]
}

// Nodes returns all nodes in site order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Transport returns the shared transport (statistics, fault control).
func (c *Cluster) Transport() transport.Transport { return c.tr }

// Close releases the cluster's resources: every node is closed (which
// closes its persistence journal, if any), and the transport is closed
// if the cluster owns it (deterministic default: a no-op beyond
// bookkeeping; async: joins the delivery goroutines).
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return closeOwnedTransport(c.ownTr, c.tr, first)
}

// drainTimeout bounds one Cluster.Run delivery pass over a transport
// that advertises the Drain capability but cannot prove global
// quiescence (e.g. TCP): Drain returns as soon as the local queues
// flush, so the timeout is only paid when traffic genuinely keeps
// flowing.
const drainTimeout = 2 * time.Second

// Run delivers in-flight messages: on the deterministic substrate it
// drains the queues (reproducibly, seeded); on a concurrent in-memory
// substrate it quiesces; on a transport with the Drain capability
// (transport.Drainer — the TCP backend implements it) it flushes the
// transport's local queues, bounded by a timeout; on any other
// substrate it yields briefly to let deliveries proceed.
func (c *Cluster) Run() error {
	if c.det != nil {
		if _, err := c.det.Run(sim.DefaultStepBudget); err != nil {
			return fmt.Errorf("causalgc: %w", err)
		}
		return nil
	}
	if q, ok := c.tr.(interface{ Quiesce() }); ok {
		q.Quiesce()
		return nil
	}
	if d, ok := c.tr.(transport.Drainer); ok {
		// Best-effort: frames already handed to the OS or in flight to a
		// peer process are invisible here; Settle's repeated stable
		// rounds absorb those stragglers.
		d.Drain(drainTimeout)
		return nil
	}
	time.Sleep(20 * time.Millisecond)
	return nil
}

// Step delivers at most one message on the deterministic substrate and
// reports whether it did; on concurrent substrates delivery is
// continuous and Step reports false.
func (c *Cluster) Step() bool {
	if c.det != nil {
		return c.det.Step()
	}
	return false
}

// CollectAll runs one local collection on every node, then delivers the
// resulting traffic.
func (c *Cluster) CollectAll() error {
	for _, n := range c.nodes {
		if _, err := n.Collect(); err != nil {
			return err
		}
	}
	return c.Run()
}

// RefreshAll runs one GGD refresh round on every node, then delivers:
// the recovery mechanism for residual garbage after message loss.
func (c *Cluster) RefreshAll() error {
	for _, n := range c.nodes {
		if err := n.Refresh(); err != nil {
			return err
		}
	}
	return c.Run()
}

// Settle drives the system to a stable state: deliver everything,
// collect everywhere, repeat until a full round changes nothing. On
// concurrent substrates stability is demanded for two consecutive
// rounds, since quiescence observations are momentary.
func (c *Cluster) Settle() error {
	if err := c.Run(); err != nil {
		return err
	}
	stable := 0
	for round := 0; round < sim.DefaultSettleRounds; round++ {
		before := c.TotalObjects()
		if err := c.CollectAll(); err != nil {
			return err
		}
		if c.TotalObjects() != before || (c.det != nil && c.det.Pending() > 0) {
			stable = 0
			continue
		}
		stable++
		if c.det != nil || stable >= 2 {
			return nil
		}
	}
	return nil
}

// TotalObjects returns the live object count across all nodes.
func (c *Cluster) TotalObjects() int {
	total := 0
	for _, n := range c.nodes {
		total += n.NumObjects()
	}
	return total
}

// Check runs the global reachability oracle over all nodes.
func (c *Cluster) Check() Report { return Check(c.nodes...) }
