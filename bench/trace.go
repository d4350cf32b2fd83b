package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Facade spans wrap the benchmark's calls into causalgc;
// transport spans come from the wrapping transport (transport.go).
const (
	spanCommit  = "causalgc.commit"
	spanCollect = "causalgc.collect"
	spanRefresh = "causalgc.refresh"
	spanRun     = "causalgc.run"
	spanRecover = "causalgc.recover"
	spanSend    = "transport.send"
	spanDeliver = "transport.deliver"
)

// span is one traced interval. Times are nanoseconds since the
// recorder started; Parent is 0 for a root span.
type span struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// recorder keeps the spans of one traced run in memory. A nil
// *recorder is the untraced run: every method is then a no-op, so the
// driver executes the same steps with tracing on and off.
type recorder struct {
	workload string
	t0       time.Time
	// on is set when the timed part starts: set-up traffic is not traced.
	on atomic.Bool
	// single says the whole system runs on the driver's goroutine (the
	// deterministic simulator), so spans need not ask which goroutine
	// they are on — the costly part of begin.
	single bool

	mu    sync.Mutex
	spans []span
	// current maps a goroutine to the span it is inside, so a
	// transport.send finds the commit (or delivery) that issued it:
	// Send runs synchronously on the goroutine of its cause.
	current map[uint64]uint64
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now(), current: make(map[uint64]uint64)}
}

// singleGoroutine declares that every span will begin on one goroutine.
func (r *recorder) singleGoroutine() {
	if r != nil {
		r.single = true
	}
}

// goid returns the calling goroutine's id, parsed from the first line
// of its stack ("goroutine 123 [running]:"). runtime.Stack walks the
// whole stack to do that, microseconds on a deep one, paid only by
// traced runs.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// begin opens a span on the calling goroutine. With parent 0 the span
// nests under whatever span the goroutine is already inside. It returns
// a token for end; the zero token (untraced) makes end a no-op.
func (r *recorder) begin(name string, op int, parent uint64) spanToken {
	if r == nil || !r.on.Load() {
		return spanToken{}
	}
	var g uint64
	if !r.single {
		g = goid()
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	prev := r.current[g]
	if parent == 0 {
		parent = prev
	}
	id := uint64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Op: op, Start: now})
	r.current[g] = id
	r.mu.Unlock()
	return spanToken{id: id, g: g, prev: prev}
}

// within reports whether the calling goroutine is inside a span of the
// given name, at any depth of synchronous nesting: the walk stops at a
// delivery, whose parent (the send) is its cause, not its caller.
func (r *recorder) within(name string) bool {
	if r == nil || !r.on.Load() {
		return false
	}
	var g uint64
	if !r.single {
		g = goid()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for id := r.current[g]; id != 0; id = r.spans[id-1].Parent {
		switch r.spans[id-1].Name {
		case name:
			return true
		case spanDeliver:
			return false
		}
	}
	return false
}

// spanToken closes the span begin opened.
type spanToken struct {
	id, g, prev uint64
}

func (r *recorder) end(t spanToken) {
	if r == nil || t.id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[t.id-1].End = now
	if t.prev == 0 {
		delete(r.current, t.g)
	} else {
		r.current[t.g] = t.prev
	}
	r.mu.Unlock()
}

// spanTotals sums, per span name, the count, the total duration and the
// self time (duration minus the part covered by child spans).
type spanTotals struct {
	Count int
	Total int64
	Self  int64
}

func (r *recorder) totals() map[string]spanTotals {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// A child covers only the part of its parent's interval it overlaps:
	// a delivery runs after its send has returned and takes nothing
	// from the send's self time.
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent == 0 {
			continue
		}
		p := r.spans[s.Parent-1]
		if d := min(s.End, p.End) - max(s.Start, p.Start); d > 0 {
			child[s.Parent] += d
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range r.spans {
		t := out[s.Name]
		d := s.End - s.Start
		t.Count++
		t.Total += d
		t.Self += d - child[s.ID]
		out[s.Name] = t
	}
	return out
}

// children counts the spans named child whose parent is named parent.
func (r *recorder) children(parent, child string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.spans {
		if s.Name == child && s.Parent != 0 && r.spans[s.Parent-1].Name == parent {
			n++
		}
	}
	return n
}

// write stores the spans as JSON in dir/trace-<workload>.json.
func (r *recorder) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("trace-%s.json", r.workload)))
	if err != nil {
		return err
	}
	r.mu.Lock()
	err = json.NewEncoder(f).Encode(r.spans)
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
