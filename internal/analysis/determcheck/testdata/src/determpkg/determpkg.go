// Package determpkg seeds determcheck violations and compliant forms.
package determpkg

import (
	"math/rand"
	"sort"
	"time"

	wall "time"
)

type out struct{}

func (out) Send(p interface{}) {}

func clock() time.Time {
	return time.Now() // want "wall-clock read time.Now in a deterministic package"
}

func auditedClock() time.Time {
	return time.Now() //causalgc:allow-wallclock monitor timestamp, display only — never replayed
}

func elapsed(t time.Time) time.Duration {
	return time.Since(t) // want "wall-clock read time.Since in a deterministic package"
}

func aliasedClock() wall.Time {
	return wall.Now() // want "wall-clock read wall.Now in a deterministic package"
}

func sleepOK() {
	time.Sleep(time.Millisecond)
}

func draw() int {
	return rand.Int() // want "rand.Int draws from the global rand source"
}

func auditedDraw() int {
	return rand.Int() //causalgc:allow-rand jitter for a backoff that feeds no replayed state
}

func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func seededDraw(rng *rand.Rand) int {
	return rng.Intn(10)
}

func fanoutBad(o out, peers map[int]string) {
	for p := range peers {
		o.Send(p) // want "Send inside a map iteration emits in nondeterministic order"
	}
}

func fanoutAudited(o out, peers map[int]string) {
	for p := range peers {
		o.Send(p) //causalgc:allow-maporder receiver is order-insensitive: a counter sink
	}
}

func fanoutGood(o out, peers map[int]string) {
	keys := make([]int, 0, len(peers))
	for k := range peers {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		o.Send(k)
	}
}

// evictBad is the dedup-set eviction that diverged a replay from its
// live run: the first key the runtime serves is the victim.
func evictBad(seen map[int]struct{}, bound int) {
	if len(seen) >= bound {
		for old := range seen {
			delete(seen, old)
			break // want "leaving a map iteration after acting on its iteration variable picks an arbitrary element"
		}
	}
}

func pickBad(rows map[int]bool) int {
	for k, live := range rows {
		if live {
			return k // want "leaving a map iteration after acting on its iteration variable"
		}
	}
	return 0
}

func evictAudited(seen map[int]struct{}) {
	for old := range seen {
		delete(seen, old)
		break //causalgc:allow-maporder the set holds one element here
	}
}

// retireGood is a full pass that only deletes: every matching row goes,
// whatever the order.
func retireGood(rows map[int]uint64, watermark uint64) int {
	n := 0
	for k, seq := range rows {
		if seq <= watermark {
			delete(rows, k)
			n++
		}
	}
	return n
}

// anyGood leaves early, but its variable only feeds the condition: an
// existence check picks nothing.
func anyGood(rows map[int]uint64, watermark uint64) bool {
	for _, seq := range rows {
		if seq <= watermark {
			return true
		}
	}
	return false
}
