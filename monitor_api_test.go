package causalgc_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"causalgc"
	"causalgc/monitor"
)

// scrape fetches one path from a metrics server and returns the body.
func scrape(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// tallyObserver asserts the fanout: a user observer must keep seeing
// events when a monitor shares the observer slot.
type tallyObserver struct {
	removed, collected int
}

func (o *tallyObserver) ClusterRemoved(causalgc.SiteID, causalgc.ClusterID) { o.removed++ }
func (o *tallyObserver) Collected(causalgc.SiteID, causalgc.CollectStats)   { o.collected++ }

// serve starts one metrics server over the given monitors and closes it
// when the test ends.
func serve(t *testing.T, mons ...*monitor.Monitor) string {
	t.Helper()
	srv, err := monitor.NewServer("127.0.0.1:0", mons...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

func TestClusterMetricsEndpoint(t *testing.T) {
	user := &tallyObserver{}
	c := causalgc.NewCluster(3,
		causalgc.WithMonitor(monitor.New(0)),
		causalgc.WithObserver(user),
	)
	defer c.Close()
	// One endpoint covers every site: serve each node's monitor, as the
	// CLIs do.
	var mons []*monitor.Monitor
	for _, n := range c.Nodes() {
		if n.Monitor() == nil {
			t.Fatalf("site %v has no monitor on a monitored cluster", n.ID())
		}
		mons = append(mons, n.Monitor())
	}
	addr := serve(t, mons...)

	n1 := c.Node(1)
	a, err := n1.NewRemote(n1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n1.DropRefs(n1.Root().Obj, a); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	body := scrape(t, addr, "/metrics")
	if !strings.Contains(body, `causalgc_clusters_removed_total{site="s2"} 1`) {
		t.Errorf("/metrics missing the site-2 removal:\n%s", body)
	}
	for _, s := range []string{`causalgc_objects{site="s1"}`, `causalgc_objects{site="s2"}`, `causalgc_objects{site="s3"}`} {
		if !strings.Contains(body, s) {
			t.Errorf("/metrics missing %q", s)
		}
	}
	// Every node is n >= 1 shards: default nodes export the shard series
	// too, as one shard="0" sample.
	for _, s := range []string{`causalgc_shards{site="s1"} 1`, `causalgc_shard_outbox_depth{site="s3",shard="0"} 0`} {
		if !strings.Contains(body, s) {
			t.Errorf("/metrics missing %q", s)
		}
	}
	// The transport surface flows through: the remote create sent wire
	// traffic that must appear kind-labelled.
	if !strings.Contains(body, `causalgc_net_sent_total{site="s1",kind=`) {
		t.Errorf("/metrics missing transport counters:\n%s", body)
	}

	// The user observer composed with the monitor instead of being
	// displaced by it.
	if user.removed == 0 || user.collected == 0 {
		t.Errorf("user observer displaced: removed=%d collected=%d", user.removed, user.collected)
	}
	// And the monitor recorded the same events into its trace.
	found := false
	for _, e := range c.Node(2).Monitor().Events(0) {
		if e.Kind == monitor.EventRemoval {
			found = true
		}
	}
	if !found {
		t.Error("site-2 monitor trace has no removal event")
	}

	trace := scrape(t, addr, "/trace?site=s2")
	if !strings.Contains(trace, `"kind": "removal"`) {
		t.Errorf("/trace?site=s2 missing the removal:\n%s", trace)
	}
}

func TestNodeMetricsEndpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	mon := monitor.New(0)
	// The server outlives the node sessions: it serves the monitor, and
	// the monitor re-attaches to each recovered node.
	addr := serve(t, mon)
	n, err := causalgc.Recover(1,
		causalgc.WithPersistence(dir),
		causalgc.WithMonitor(mon),
	)
	if err != nil {
		t.Fatal(err)
	}
	if n.Monitor() != mon {
		t.Fatal("Node.Monitor does not return the WithMonitor monitor")
	}
	if _, err := n.NewLocal(n.Root().Obj); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Collect(); err != nil {
		t.Fatal(err)
	}
	body := scrape(t, addr, "/metrics")
	if !strings.Contains(body, `causalgc_objects{site="s1"} 2`) {
		t.Errorf("/metrics missing object gauge:\n%s", body)
	}
	if !strings.Contains(body, `causalgc_wal_appends_total{site="s1"}`) {
		t.Errorf("/metrics missing WAL counters on a persistent node:\n%s", body)
	}
	before := mon.Events(0)
	if len(before) == 0 {
		t.Fatal("no event traced before the restart")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// Same monitor across a crash-equivalent restart: sources re-attach
	// and the trace carries across.
	n2, err := causalgc.Recover(1,
		causalgc.WithPersistence(dir),
		causalgc.WithMonitor(mon),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	body = scrape(t, addr, "/metrics")
	if !strings.Contains(body, `causalgc_objects{site="s1"} 2`) {
		t.Errorf("post-recovery /metrics wrong object gauge:\n%s", body)
	}
	if !strings.Contains(body, `causalgc_wal_recovered_records{site="s1"}`) {
		t.Errorf("post-recovery /metrics missing recovery counters:\n%s", body)
	}
	var after []monitor.Event
	if err := json.Unmarshal([]byte(scrape(t, addr, "/trace")), &after); err != nil {
		t.Fatal(err)
	}
	if len(after) < len(before) || after[0].Seq != before[0].Seq || after[0].Kind != before[0].Kind {
		t.Errorf("post-recovery /trace lost the pre-restart trace: before %+v, after %+v", before, after)
	}
}

func TestFanoutObserverStacksUserObservers(t *testing.T) {
	a, b := &tallyObserver{}, &tallyObserver{}
	c := causalgc.NewCluster(2, causalgc.WithObserver(causalgc.FanoutObserver(a, b)))
	defer c.Close()
	n1 := c.Node(1)
	r, err := n1.NewRemote(n1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n1.DropRefs(n1.Root().Obj, r); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	if a.removed != b.removed || a.removed == 0 {
		t.Errorf("fanout children diverge: a.removed=%d b.removed=%d", a.removed, b.removed)
	}
}
