// causalgc-node runs causalgc sites over real TCP sockets: one process
// per node (a process may host several sites for compact demos), wired
// to its peers by a static address book. It is the multi-process
// counterpart of the in-process Cluster.
//
// With -demo the processes choreograph the quickstart scenario end to
// end without any coordination channel besides causalgc itself: the
// process hosting site 1 creates an object a on site 2 (remote create);
// site 2's process creates b on site 3 and c on site 1 from a, sends c a
// reference to b (a third-party transfer across three sites) and sends b
// a reference back to a (closing a distributed cycle); site 1 then drops
// its only root reference, and every process waits until Global Garbage
// Detection has reclaimed the whole cycle on its sites, printing the
// verdict and traffic statistics.
//
// Two-process demo (three sites, genuine third-party transfer):
//
//	causalgc-node -sites 1,3 -listen 127.0.0.1:7001 -peers 2=127.0.0.1:7002 -demo
//	causalgc-node -sites 2   -listen 127.0.0.1:7002 -peers 1=127.0.0.1:7001,3=127.0.0.1:7001 -demo
//
// Both processes exit 0 once the cycle is gone. Without -demo the
// process just hosts its sites (collecting periodically and printing a
// status line) until killed.
//
// With -persist <dir> every hosted site journals its state under
// <dir>/site-<id> (write-ahead log + snapshots): a process killed at
// any instant — kill -9 included — resumes from the same directory, so
//
//	causalgc-node -sites 2 ... -demo -persist /var/lib/causalgc
//	<kill -9 mid-protocol>
//	causalgc-node -sites 2 ... -persist /var/lib/causalgc
//
// recovers site 2 and the cluster still reclaims its garbage (the e2e
// test exercises exactly this).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"causalgc"
	"causalgc/monitor"
	"causalgc/transport/tcp"
)

func main() {
	sitesFlag := flag.String("sites", "1", "comma-separated site IDs hosted by this process")
	listen := flag.String("listen", "127.0.0.1:7001", "address to accept peer connections on")
	peersFlag := flag.String("peers", "", "remote sites, e.g. 2=127.0.0.1:7002,3=127.0.0.1:7003")
	demo := flag.Bool("demo", false, "run the distributed-cycle demo, then exit")
	timeout := flag.Duration("timeout", 60*time.Second, "demo deadline")
	persistDir := flag.String("persist", "", "directory for per-site durability (WAL + snapshots); empty = volatile")
	snapshotEvery := flag.Int("snapshot-every", 256, "WAL records between snapshots (with -persist)")
	dialTimeout := flag.Duration("dial-timeout", 2*time.Second, "peer connection attempt timeout")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus/JSON metrics and the event trace for all hosted sites on this address (e.g. 127.0.0.1:9090); empty = disabled")
	flag.Parse()

	if err := run(*sitesFlag, *listen, *peersFlag, *demo, *timeout, *persistDir, *snapshotEvery, *dialTimeout, *metricsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "causalgc-node:", err)
		os.Exit(1)
	}
}

func run(sitesFlag, listen, peersFlag string, demo bool, timeout time.Duration, persistDir string, snapshotEvery int, dialTimeout time.Duration, metricsAddr string) error {
	siteIDs, err := parseSites(sitesFlag)
	if err != nil {
		return err
	}
	peers, err := parsePeers(peersFlag)
	if err != nil {
		return err
	}

	net, err := tcp.New(tcp.Config{Listen: listen, Peers: peers, DialTimeout: dialTimeout})
	if err != nil {
		return err
	}
	defer net.Close()
	fmt.Printf("listening on %v, hosting sites %v\n", net.Addr(), siteIDs)

	// One monitor per hosted site, whether or not the endpoint is
	// enabled: serve-mode status lines read from the same snapshots a
	// scrape would.
	nodes := make(map[causalgc.SiteID]*causalgc.Node, len(siteIDs))
	mons := make([]*monitor.Monitor, 0, len(siteIDs))
	for _, id := range siteIDs {
		mon := monitor.New(0)
		mons = append(mons, mon)
		if persistDir == "" {
			nodes[id] = causalgc.NewNode(id, causalgc.WithTransport(net), causalgc.WithMonitor(mon))
			continue
		}
		dir := filepath.Join(persistDir, fmt.Sprintf("site-%d", id))
		n, err := causalgc.Recover(id,
			causalgc.WithTransport(net),
			causalgc.WithPersistence(dir),
			causalgc.WithSnapshotEvery(snapshotEvery),
			causalgc.WithMonitor(mon),
		)
		if err != nil {
			return fmt.Errorf("recover site %v from %s: %w", id, dir, err)
		}
		fmt.Printf("site %v: recovered from %s (%d objects)\n", id, dir, n.NumObjects())
		nodes[id] = n
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	if metricsAddr != "" {
		msrv, err := monitor.NewServer(metricsAddr, mons...)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer msrv.Close()
		fmt.Printf("metrics on %v\n", msrv.Addr())
	}

	if !demo {
		return serve(nodes)
	}

	deadline := time.Now().Add(timeout)
	driver, hasDriver := nodes[1]
	responder, hasResponder := nodes[2]
	switch {
	case hasDriver && hasResponder:
		// Single-process demo: the responder choreography runs alongside
		// the driver (the TCP transport and the nodes are concurrency-safe).
		errc := make(chan error, 1)
		go func() { errc <- buildCycle(responder, nodes, peers, deadline) }()
		if err := runDriver(driver, nodes, deadline); err != nil {
			return err
		}
		if err := <-errc; err != nil {
			return err
		}
	case hasDriver:
		if err := runDriver(driver, nodes, deadline); err != nil {
			return err
		}
	case hasResponder:
		if err := buildCycle(responder, nodes, peers, deadline); err != nil {
			return err
		}
		if err := waitReclaimed(nodes, deadline); err != nil {
			return err
		}
	default:
		if err := waitReclaimed(nodes, deadline); err != nil {
			return err
		}
	}
	fmt.Printf("traffic:\n%s", net.Stats())
	return nil
}

// serve hosts the sites until killed: a collection and refresh round
// per second (the §5 recovery round — without it, control messages lost
// to peer restarts would leak residual garbage forever in a long-lived
// node) and a parseable status line for supervisors and the e2e test.
// The line is built from the monitors' snapshots — the same numbers a
// /metrics scrape reports — and keeps `status objects=N` as its stable
// prefix.
func serve(nodes map[causalgc.SiteID]*causalgc.Node) error {
	for {
		time.Sleep(time.Second)
		var objects, removed, collections, retained int
		for _, n := range nodes {
			if _, err := n.Collect(); err != nil {
				return err
			}
			if err := n.Refresh(); err != nil {
				return err
			}
			snap := n.Monitor().Snapshot()
			objects += snap.Objects
			removed += snap.Engine.Removed
			collections += snap.Collect.Collections
			retained += snap.Depths.Outbox + snap.Depths.AssertRows + snap.Depths.DestroyRows
		}
		fmt.Printf("status objects=%d removed=%d collections=%d retained=%d\n",
			objects, removed, collections, retained)
	}
}

// runDriver is the site-1 side of the demo: remote create, then drop,
// then wait for reclamation everywhere it can see.
func runDriver(n1 *causalgc.Node, nodes map[causalgc.SiteID]*causalgc.Node, deadline time.Time) error {
	a, err := n1.NewRemote(n1.Root().Obj, 2)
	if err != nil {
		return err
	}
	fmt.Printf("site 1: created %v on site 2 (remote create)\n", a)

	// Site 2's process now builds the cycle: b and c are created back on
	// the sites this process hosts. Wait until every hosted site grew,
	// then give the in-flight reference transfers a moment to land.
	if err := pollUntil(nodes, deadline, func() bool {
		for _, n := range nodes {
			if n.NumObjects() < 2 {
				return false
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("waiting for the cycle to be built: %w", err)
	}
	time.Sleep(500 * time.Millisecond)

	if err := n1.DropRefs(n1.Root().Obj, a); err != nil {
		return err
	}
	fmt.Printf("site 1: dropped the only root reference to %v — the cycle is garbage\n", a)
	return waitReclaimed(nodes, deadline)
}

// buildCycle is the site-2 choreography: on the arrival of a it builds
// the distributed cycle {a, b, c} across sites 2, 3 and 1 (or just
// {a, b} across 2 and 1 in a two-site system).
func buildCycle(n2 *causalgc.Node, nodes map[causalgc.SiteID]*causalgc.Node, peers map[causalgc.SiteID]string, deadline time.Time) error {
	var a causalgc.Ref
	if err := pollUntil(nodes, deadline, func() bool {
		for _, o := range n2.Objects() {
			if o.Obj != n2.Root().Obj {
				a = o
				return true
			}
		}
		return false
	}); err != nil {
		return fmt.Errorf("waiting for the remote create: %w", err)
	}
	fmt.Printf("site 2: received %v\n", a)

	_, peer3 := peers[3]
	_, local3 := nodes[3]
	if peer3 || local3 {
		// Three sites: b on site 3, c on site 1, third-party transfer
		// c→b, and the cycle edge b→a.
		b, err := n2.NewRemote(a.Obj, 3)
		if err != nil {
			return err
		}
		c, err := n2.NewRemote(a.Obj, 1)
		if err != nil {
			return err
		}
		if err := n2.SendRef(a.Obj, c, b); err != nil { // third-party: 2 introduces 1's c to 3's b
			return err
		}
		if err := n2.SendRef(a.Obj, b, a); err != nil { // cycle closes: b → a
			return err
		}
		fmt.Printf("site 2: built cycle a=%v → {b=%v, c=%v}, c→b (third-party), b→a\n", a, b, c)
	} else {
		// Two sites: b on site 1 and the cycle a ⇄ b.
		b, err := n2.NewRemote(a.Obj, 1)
		if err != nil {
			return err
		}
		if err := n2.SendRef(a.Obj, b, a); err != nil {
			return err
		}
		fmt.Printf("site 2: built cycle a=%v ⇄ b=%v\n", a, b)
	}
	return nil
}

// waitReclaimed drives the hosted sites (collect + refresh) until each
// is back to its root object alone, i.e. GGD reclaimed everything.
func waitReclaimed(nodes map[causalgc.SiteID]*causalgc.Node, deadline time.Time) error {
	err := pollUntil(nodes, deadline, func() bool {
		for _, n := range nodes {
			if n.NumObjects() != 1 {
				return false
			}
		}
		return true
	})
	if err != nil {
		for id, n := range nodes {
			fmt.Printf("site %v: %d objects remain\n", id, n.NumObjects())
		}
		return fmt.Errorf("distributed cycle not reclaimed: %w", err)
	}
	for id, n := range nodes {
		st := n.Stats()
		fmt.Printf("site %v: reclaimed, %d cluster(s) removed by GGD\n", id, st.Removed)
	}
	fmt.Println("demo complete: distributed cycle detected and reclaimed over TCP")
	return nil
}

// pollUntil runs collection and refresh rounds on every hosted site
// until cond holds or the deadline passes. Refresh is the §5 recovery
// round; repeating it makes progress independent of arrival order.
func pollUntil(nodes map[causalgc.SiteID]*causalgc.Node, deadline time.Time, cond func() bool) error {
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		for _, n := range nodes {
			n.Collect()
			n.Refresh()
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("timed out")
}

func parseSites(s string) ([]causalgc.SiteID, error) {
	var out []causalgc.SiteID
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.ParseUint(part, 10, 32)
		if err != nil || id == 0 {
			return nil, fmt.Errorf("bad site id %q", part)
		}
		out = append(out, causalgc.SiteID(id))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sites to host")
	}
	return out, nil
}

func parsePeers(s string) (map[causalgc.SiteID]string, error) {
	peers := make(map[causalgc.SiteID]string)
	if strings.TrimSpace(s) == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q (want site=host:port)", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 32)
		if err != nil || id == 0 {
			return nil, fmt.Errorf("bad peer site id %q", kv[0])
		}
		peers[causalgc.SiteID(id)] = kv[1]
	}
	return peers, nil
}
