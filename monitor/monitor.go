package monitor

import (
	"sync"
	"time"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
	"causalgc/persist"
)

// DefaultTraceDepth is the event-trace ring capacity used when New is
// given a non-positive depth: enough to reconstruct the recent causal
// history around an invariant violation without unbounded growth.
const DefaultTraceDepth = 1024

// Sources are the read-side closures a Monitor snapshots. Each closure
// must be safe to call from any goroutine (the runtime's introspection
// methods are); nil members are simply absent from snapshots. A Node
// fills these in when the monitor is attached via causalgc.WithMonitor.
type Sources struct {
	// Objects returns the live heap object count.
	Objects func() int
	// Engine returns the GGD engine activity counters.
	Engine func() core.Stats
	// Frames returns the site-level retirement counters.
	Frames func() site.FrameStats
	// Depths returns the retained-state table sizes.
	Depths func() site.Depths
	// Persist returns the durable store's counters; nil for a volatile
	// node.
	Persist func() persist.Stats
	// Transport is the shared delivery statistics of the node's
	// transport; nil when the transport exposes none.
	Transport *netsim.Stats
	// Shards returns the lock-stripe width (1 on a default node).
	Shards func() int
	// ShardDepths returns one shard's retained-state table sizes. Valid
	// indices are 0..Shards()-1.
	ShardDepths func(i int) site.Depths
}

// Event is one structured trace entry: an Observer or AckObserver
// callback captured with a monitor-assigned sequence number and a
// wall-clock stamp. Only the fields of the event's kind are set.
type Event struct {
	// Seq is the monitor-local sequence number (1-based, never reused).
	Seq uint64 `json:"seq"`
	// Time is the wall-clock capture time.
	Time time.Time `json:"time"`
	// Site is the observed site.
	Site ids.SiteID `json:"site"`
	// Kind discriminates the event: "removal", "collection" or
	// "frame_retired".
	Kind string `json:"kind"`
	// Cluster is the removed cluster ("removal" events).
	Cluster string `json:"cluster,omitempty"`
	// Marked, Swept and Roots are the collection's statistics
	// ("collection" events).
	Marked int `json:"marked,omitempty"`
	// Swept counts objects reclaimed ("collection" events).
	Swept int `json:"swept,omitempty"`
	// Roots is the root-set size used ("collection" events).
	Roots int `json:"roots,omitempty"`
	// Peer is the remote site of a retirement-stream event
	// ("frame_retired").
	Peer ids.SiteID `json:"peer,omitempty"`
	// Stream names the retirement stream ("frame_retired").
	Stream string `json:"stream,omitempty"`
	// Frames is the number of outbox frames retired ("frame_retired").
	Frames int `json:"frames,omitempty"`
}

// Event kinds.
const (
	// EventRemoval records a cluster detected as global garbage and
	// removed.
	EventRemoval = "removal"
	// EventCollection records one local mark-sweep collection.
	EventCollection = "collection"
	// EventFrameRetired records outbox frames retired by a cumulative
	// acknowledgement.
	EventFrameRetired = "frame_retired"
)

// CollectTotals accumulates local mark-sweep collections observed since
// the monitor attached: heap.CollectStats is per-collection, so the
// running sums live here.
type CollectTotals struct {
	// Collections counts collections observed.
	Collections int `json:"collections"`
	// Marked sums objects found reachable over all collections.
	Marked int `json:"marked"`
	// Swept sums objects reclaimed over all collections.
	Swept int `json:"swept"`
}

// TraceStats describes the event ring's occupancy.
type TraceStats struct {
	// Recorded counts events ever recorded (the latest Seq).
	Recorded uint64 `json:"recorded"`
	// Dropped counts events overwritten after falling off the bounded
	// ring.
	Dropped uint64 `json:"dropped"`
	// Depth is the ring capacity.
	Depth int `json:"depth"`
}

// Snapshot is one consistent-enough read of every stats surface the
// monitor watches, serialisable as JSON and renderable as Prometheus
// text. Counter surfaces are copied from their sources at snapshot
// time; each surface is internally consistent but surfaces are not
// mutually atomic.
type Snapshot struct {
	// Site is the monitored site.
	Site ids.SiteID `json:"site"`
	// Time is the snapshot's wall-clock stamp.
	Time time.Time `json:"time"`
	// UptimeSeconds is the time since the monitor attached.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Objects is the live heap object count.
	Objects int `json:"objects"`
	// Engine is the GGD engine activity counters.
	Engine core.Stats `json:"engine"`
	// Frames is the site-level retirement counters.
	Frames site.FrameStats `json:"frames"`
	// Depths is the retained-state table sizes.
	Depths site.Depths `json:"depths"`
	// Collect accumulates local collections observed via the trace.
	Collect CollectTotals `json:"collect"`
	// Persist is the durable store's counters; nil for a volatile node.
	Persist *persist.Stats `json:"persist,omitempty"`
	// Transport is the per-kind delivery statistics; nil when the node's
	// transport exposes none.
	Transport map[string]netsim.KindStats `json:"transport,omitempty"`
	// Shards is the lock-stripe width: every node reports at least 1
	// (0 only when the monitor is attached to no site).
	Shards int `json:"shards,omitempty"`
	// ShardDepths is each shard's retained-state table sizes, in shard
	// order. The site-wide Depths above is their sum.
	ShardDepths []site.Depths `json:"shard_depths,omitempty"`
	// Trace describes the event ring's occupancy.
	Trace TraceStats `json:"trace"`
}

// Monitor is one node's metrics registry and bounded event trace. It
// implements the causalgc Observer and AckObserver hooks (the callbacks
// only touch the monitor's own state, as the hook contract requires) and
// snapshots the node's stats surfaces on demand through the attached
// Sources. A zero Monitor is not usable; construct with New.
type Monitor struct {
	mu      sync.Mutex
	siteID  ids.SiteID
	start   time.Time
	src     Sources
	seq     uint64
	ring    []Event // fixed capacity; next points at the overwrite slot
	next    int
	filled  bool
	dropped uint64
	collect CollectTotals
}

// New creates a monitor with the given event-trace depth; a non-positive
// depth selects DefaultTraceDepth. The monitor records nothing until
// attached to a node (causalgc.WithMonitor, or Attach directly).
func New(traceDepth int) *Monitor {
	if traceDepth <= 0 {
		traceDepth = DefaultTraceDepth
	}
	return &Monitor{ring: make([]Event, traceDepth)}
}

// Attach binds the monitor to a site's stats surfaces, resetting the
// uptime clock. A node recovered after a crash re-attaches the same
// monitor: counters from its sources restart (they are per-session), the
// event trace and collection totals carry across the restart.
func (m *Monitor) Attach(siteID ids.SiteID, src Sources) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.siteID = siteID
	m.src = src
	m.start = time.Now()
}

// Site returns the attached site identifier (NoSite before Attach).
func (m *Monitor) Site() ids.SiteID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.siteID
}

// record appends one event to the bounded ring.
func (m *Monitor) record(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	e.Seq = m.seq
	e.Time = time.Now()
	e.Site = m.siteID
	if m.filled {
		m.dropped++
	}
	m.ring[m.next] = e
	m.next++
	if m.next == len(m.ring) {
		m.next = 0
		m.filled = true
	}
}

// ClusterRemoved implements the Observer hook: it traces the removal.
func (m *Monitor) ClusterRemoved(siteID ids.SiteID, cluster ids.ClusterID) {
	m.record(Event{Kind: EventRemoval, Cluster: cluster.String()})
}

// Collected implements the Observer hook: it traces the collection and
// folds its statistics into the running totals.
func (m *Monitor) Collected(siteID ids.SiteID, stats heap.CollectStats) {
	m.mu.Lock()
	m.collect.Collections++
	m.collect.Marked += stats.Marked
	m.collect.Swept += stats.Swept
	m.mu.Unlock()
	m.record(Event{Kind: EventCollection, Marked: stats.Marked, Swept: stats.Swept, Roots: stats.Roots})
}

// FrameRetired implements the AckObserver hook: it traces the
// acknowledged retirement.
func (m *Monitor) FrameRetired(siteID ids.SiteID, peer ids.SiteID, stream core.Stream, frames int) {
	m.record(Event{Kind: EventFrameRetired, Peer: peer, Stream: stream.String(), Frames: frames})
}

// Events returns up to max recent trace events, oldest first (all of
// them when max is non-positive or exceeds the retained count).
func (m *Monitor) Events(max int) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ordered []Event
	if m.filled {
		ordered = append(ordered, m.ring[m.next:]...)
		ordered = append(ordered, m.ring[:m.next]...)
	} else {
		ordered = append(ordered, m.ring[:m.next]...)
	}
	if max > 0 && len(ordered) > max {
		ordered = ordered[len(ordered)-max:]
	}
	return ordered
}

// Snapshot reads every attached stats surface and the trace counters.
// The source closures are called without the monitor's lock held — they
// take the node's own locks, and the node's hooks call back into the
// monitor — so a snapshot can race an in-flight event; each individual
// surface is still a consistent copy.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	src := m.src
	s := Snapshot{
		Site:    m.siteID,
		Collect: m.collect,
		Trace:   TraceStats{Recorded: m.seq, Dropped: m.dropped, Depth: len(m.ring)},
	}
	start := m.start
	m.mu.Unlock()

	s.Time = time.Now()
	if !start.IsZero() {
		s.UptimeSeconds = s.Time.Sub(start).Seconds()
	}
	if src.Objects != nil {
		s.Objects = src.Objects()
	}
	if src.Engine != nil {
		s.Engine = src.Engine()
	}
	if src.Frames != nil {
		s.Frames = src.Frames()
	}
	if src.Depths != nil {
		s.Depths = src.Depths()
	}
	if src.Shards != nil {
		s.Shards = src.Shards()
		if src.ShardDepths != nil {
			s.ShardDepths = make([]site.Depths, s.Shards)
			for i := range s.ShardDepths {
				s.ShardDepths[i] = src.ShardDepths(i)
			}
		}
	}
	if src.Persist != nil {
		ps := src.Persist()
		s.Persist = &ps
	}
	if src.Transport != nil {
		s.Transport = src.Transport.Snapshot()
	}
	return s
}
