package vclock

import (
	"fmt"
	"strconv"
)

// Stamp is one entry of a dependency vector: the index of a log-keeping
// event, plus the Ē marker for edge-destruction events (§3.1). The zero
// Stamp means "no log-keeping message ever received from this process"
// (paper: the value 0).
type Stamp struct {
	// Seq is the event index. Zero means "never".
	Seq uint64
	// Eps marks an Ē stamp: the last log-keeping control message received
	// from the corresponding process was an edge destruction. For
	// reachability purposes an Ē stamp is treated as if the edge had never
	// been created (§3.2), but its Seq still orders it against creation
	// stamps so that a destruction cancels exactly the creations that
	// causally precede it.
	Eps bool
}

// Zero is the never-heard-from stamp.
var Zero Stamp

// At returns a live (creation) stamp with the given sequence number.
func At(seq uint64) Stamp { return Stamp{Seq: seq} }

// Eps returns an Ē stamp with the given sequence number: the paper's
// Ē(c), recorded when an edge-destruction control message stamped c is
// processed.
func Eps(seq uint64) Stamp { return Stamp{Seq: seq, Eps: true} }

// Dead is Λ in the paper (§3.3): true for the zero stamp and for every Ē
// stamp. A dead stamp certifies the absence of a live edge-creation event.
func (s Stamp) Dead() bool { return s.Seq == 0 || s.Eps }

// Live is the negation of Dead.
func (s Stamp) Live() bool { return !s.Dead() }

// Less orders stamps for merging: primarily by sequence number; at equal
// sequence the Ē stamp supersedes the live stamp, because a destruction
// cancels the creations whose stamps do not exceed its own.
func (s Stamp) Less(o Stamp) bool {
	if s.Seq != o.Seq {
		return s.Seq < o.Seq
	}
	return !s.Eps && o.Eps
}

// Merge returns the superseding stamp of the two (the max in Less order).
// Merge is commutative, associative and idempotent, which is what makes
// GGD messages idempotent and loss/duplication safe (§5).
func (s Stamp) Merge(o Stamp) Stamp {
	if s.Less(o) {
		return o
	}
	return s
}

// String renders "0", "17" or "Ē17".
func (s Stamp) String() string {
	if s.Eps {
		return "Ē" + strconv.FormatUint(s.Seq, 10)
	}
	return strconv.FormatUint(s.Seq, 10)
}

// GoString makes %#v readable in test failures.
func (s Stamp) GoString() string { return fmt.Sprintf("vclock.Stamp{Seq:%d,Eps:%t}", s.Seq, s.Eps) }
