package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
	"causalgc/persist"
)

func testSources() Sources {
	tr := netsim.NewStats()
	return Sources{
		Objects: func() int { return 7 },
		Engine:  func() core.Stats { return core.Stats{Removed: 3, AssertResends: 2} },
		Frames: func() site.FrameStats {
			return site.FrameStats{OutboxRetained: 1, OutboxResends: 4, DeliveriesRefused: 6}
		},
		Depths: func() site.Depths { return site.Depths{Outbox: 1, AssertRows: 5, DestroyRows: 4, PendingDeliveries: 2} },
		Shards: func() int { return 2 },
		ShardDepths: func(i int) site.Depths {
			return site.Depths{Outbox: i, AssertRows: 5 * i, DestroyRows: 4 * i, PendingDeliveries: 2 * i}
		},
		Persist: func() persist.Stats {
			return persist.Stats{Appends: 10, Syncs: 2, SyncNanos: 3000, SyncMaxNanos: 2000}
		},
		Transport: tr,
	}
}

func TestSnapshotReadsSources(t *testing.T) {
	m := New(0)
	m.Attach(2, testSources())
	s := m.Snapshot()
	if s.Site != 2 || s.Objects != 7 || s.Engine.Removed != 3 || s.Frames.OutboxResends != 4 {
		t.Fatalf("snapshot did not read sources: %+v", s)
	}
	if s.Depths.AssertRows != 5 {
		t.Errorf("Depths.AssertRows = %d, want 5", s.Depths.AssertRows)
	}
	if s.Persist == nil || s.Persist.SyncMaxNanos != 2000 {
		t.Errorf("Persist surface missing or wrong: %+v", s.Persist)
	}
}

func TestEventRingBoundsAndOrder(t *testing.T) {
	m := New(4)
	m.Attach(1, Sources{})
	for i := 0; i < 10; i++ {
		m.ClusterRemoved(1, ids.ClusterID{Site: 1, Seq: uint64(i)})
	}
	evs := m.Events(0)
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("event %d: seq %d, want %d (oldest-first order)", i, e.Seq, want)
		}
		if e.Kind != EventRemoval || e.Time.IsZero() {
			t.Errorf("event %d malformed: %+v", i, e)
		}
	}
	if evs = m.Events(2); len(evs) != 2 || evs[1].Seq != 10 {
		t.Errorf("Events(2) = %+v, want the 2 most recent", evs)
	}
	st := m.Snapshot().Trace
	if st.Recorded != 10 || st.Dropped != 6 || st.Depth != 4 {
		t.Errorf("trace stats = %+v, want recorded=10 dropped=6 depth=4", st)
	}
}

func TestObserverHooksRecordKinds(t *testing.T) {
	m := New(16)
	m.Attach(3, Sources{})
	m.Collected(3, heap.CollectStats{Marked: 5, Swept: 2, Roots: 4})
	m.Collected(3, heap.CollectStats{Marked: 1, Swept: 1, Roots: 1})
	m.FrameRetired(3, 1, 6)
	evs := m.Events(0)
	kinds := make([]string, len(evs))
	for i, e := range evs {
		kinds[i] = e.Kind
	}
	want := []string{EventCollection, EventCollection, EventFrameRetired}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	if evs[2].Peer != 1 || evs[2].Frames != 6 {
		t.Errorf("frame_retired event malformed: %+v", evs[2])
	}
	if c := m.Snapshot().Collect; c.Collections != 2 || c.Marked != 6 || c.Swept != 3 {
		t.Errorf("collect totals = %+v", c)
	}
}

func TestWriteExposition(t *testing.T) {
	m := New(0)
	src := testSources()
	var p netsim.Payload = fakePayload{}
	src.Transport.RecordSent(p)
	src.Transport.RecordDelivered(p)
	m.Attach(2, src)

	var b strings.Builder
	if err := WriteExposition(&b, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`causalgc_objects{site="s2"} 7`,
		`causalgc_clusters_removed_total{site="s2"} 3`,
		`causalgc_resends_total{site="s2",stream="assert"} 2`,
		`causalgc_resends_total{site="s2",stream="outbox"} 4`,
		`causalgc_assert_journal_depth{site="s2"} 5`,
		`causalgc_deliveries_refused_total{site="s2"} 6`,
		`causalgc_wal_fsync_seconds_total{site="s2"} 3e-06`,
		`causalgc_wal_fsync_max_seconds{site="s2"} 2e-06`,
		`causalgc_net_sent_total{site="s2",kind="fake"} 1`,
		"# TYPE causalgc_outbox_depth gauge",
		`causalgc_shards{site="s2"} 2`,
		`causalgc_shard_assert_journal_depth{site="s2",shard="1"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// HELP/TYPE must appear exactly once per metric.
	if n := strings.Count(out, "# TYPE causalgc_objects "); n != 1 {
		t.Errorf("TYPE causalgc_objects appears %d times", n)
	}
	// Every depth gauge is exported site-wide and per site × shard.
	for _, d := range []struct {
		name     string
		per      int
		siteWide int
	}{{"outbox", 1, 1}, {"assert_journal", 5, 5}, {"destroy_bundles", 4, 4}, {"pending_deliveries", 2, 2}} {
		want := []string{
			fmt.Sprintf(`causalgc_%s_depth{site="s2"} %d`, d.name, d.siteWide),
			fmt.Sprintf(`causalgc_shard_%s_depth{site="s2",shard="0"} 0`, d.name),
			fmt.Sprintf(`causalgc_shard_%s_depth{site="s2",shard="1"} %d`, d.name, d.per),
			"# TYPE causalgc_shard_" + d.name + "_depth gauge",
		}
		for _, w := range want {
			if n := strings.Count(out, w+"\n"); n != 1 {
				t.Errorf("exposition has %q %d times, want once\n%s", w, n, out)
			}
		}
	}
}

func TestExpositionOmitsAbsentSurfaces(t *testing.T) {
	m := New(0)
	m.Attach(1, Sources{Objects: func() int { return 1 }})
	var b strings.Builder
	if err := WriteExposition(&b, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, absent := range []string{"causalgc_wal_", "causalgc_net_"} {
		if strings.Contains(out, absent) {
			t.Errorf("exposition contains %q for a volatile node\n%s", absent, out)
		}
	}
}

type fakePayload struct{}

func (fakePayload) Kind() string    { return "fake" }
func (fakePayload) ApproxSize() int { return 10 }

func TestServerEndpoints(t *testing.T) {
	m1 := New(8)
	m1.Attach(1, testSources())
	m2 := New(8)
	m2.Attach(2, Sources{Objects: func() int { return 42 }})
	m2.ClusterRemoved(2, ids.ClusterID{Site: 2, Seq: 9})

	srv, err := NewServer("127.0.0.1:0", m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, `causalgc_objects{site="s1"} 7`) ||
		!strings.Contains(body, `causalgc_objects{site="s2"} 42`) {
		t.Errorf("/metrics: code=%d body:\n%s", code, body)
	}

	code, body := get("/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json: code=%d", code)
	}
	var snaps []Snapshot
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		t.Fatalf("/metrics.json did not parse: %v", err)
	}
	if len(snaps) != 2 || snaps[0].Site != 1 || snaps[1].Objects != 42 {
		t.Errorf("/metrics.json snapshots = %+v", snaps)
	}

	code, body = get("/trace?site=s2")
	if code != 200 {
		t.Fatalf("/trace: code=%d", code)
	}
	var evs []Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/trace did not parse: %v", err)
	}
	if len(evs) != 1 || evs[0].Kind != EventRemoval || evs[0].Cluster != "s2/c9" {
		t.Errorf("/trace?site=s2 = %+v", evs)
	}

	if code, _ := get("/trace?n=bogus"); code != 400 {
		t.Errorf("/trace?n=bogus: code=%d, want 400", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code=%d body=%q", code, body)
	}
}
