package vclock

import (
	"strings"
	"testing"
)

func TestHintSetArmAndClear(t *testing.T) {
	h := NewHintSet()
	if h.Has(c3) || !h.Empty() {
		t.Fatal("new set not empty")
	}
	if !h.Arm(c3, c2, 5) {
		t.Fatal("Arm must report change")
	}
	if h.Arm(c3, c2, 5) {
		t.Error("re-arming same seq must be a no-op")
	}
	if !h.Has(c3) || h.Empty() {
		t.Error("hint not pending")
	}
	if got := h.pending[c3].Get(c2); got != At(5) {
		t.Errorf("pending = %v", got)
	}

	// Clearing below the armed seq leaves it pending.
	if !h.Clear(c3, c2, 4) {
		t.Error("Clear must record the bound")
	}
	if !h.Has(c3) {
		t.Error("hint wrongly cleared by a lower bound")
	}
	// Clearing at the seq resolves it.
	h.Clear(c3, c2, 5)
	if h.Has(c3) {
		t.Error("hint not cleared")
	}
	// Stale re-arm suppressed by the resolution bound.
	if h.Arm(c3, c2, 5) || h.Has(c3) {
		t.Error("stale re-arm not suppressed")
	}
	// A genuinely newer introduction re-arms.
	if !h.Arm(c3, c2, 6) || !h.Has(c3) {
		t.Error("newer introduction must re-arm")
	}
}

func TestHintSetZeroSeqIgnored(t *testing.T) {
	h := NewHintSet()
	if h.Arm(c3, c2, 0) {
		t.Error("zero seq must not arm")
	}
}

func TestHintSetPerIntroducer(t *testing.T) {
	h := NewHintSet()
	h.Arm(c3, c2, 5)
	h.Arm(c3, c4, 2)
	h.Clear(c3, c2, 5)
	if !h.Has(c3) {
		t.Error("clearing one introducer must not resolve the other's hint")
	}
	h.Clear(c3, c4, 2)
	if h.Has(c3) {
		t.Error("all introducers resolved; hint must be gone")
	}
}

func TestHintSetColsSortedAndString(t *testing.T) {
	h := NewHintSet()
	h.Arm(c4, c2, 1)
	h.Arm(c3, c2, 1)
	cols := h.Cols()
	if len(cols) != 2 || !cols[0].Less(cols[1]) {
		t.Errorf("Cols = %v", cols)
	}
	if s := h.String(); !strings.Contains(s, "s3/c1<-") {
		t.Errorf("String = %q", s)
	}
	if NewHintSet().String() != "{}" {
		t.Error("empty String")
	}
}

func TestHintSetExpire(t *testing.T) {
	h := NewHintSet()
	h.Arm(c3, c2, 5)
	if !h.Expire(c3, c2, 5) {
		t.Fatal("Expire must report change")
	}
	if h.Has(c3) {
		t.Error("expired hint still pending")
	}
	// The expiry bound suppresses stale re-arms exactly like Clear.
	if h.Arm(c3, c2, 4) || h.Has(c3) {
		t.Error("stale re-arm not suppressed by the expiry bound")
	}
	// A fresher forwarding (a new introduction of the same pair) is not
	// covered by the bound and arms again.
	if !h.Arm(c3, c2, 6) || !h.Has(c3) {
		t.Error("fresher forwarding wrongly expired")
	}
}

func TestHintSetExpireBeforeArm(t *testing.T) {
	// The expiry may race ahead of the arming (the negative assert is
	// issued the moment the dead transfer is delivered, the arming bundle
	// can arrive later): the bound must already suppress it.
	h := NewHintSet()
	h.Expire(c3, c2, 5)
	if h.Arm(c3, c2, 5) || h.Has(c3) {
		t.Error("arming after expiry not suppressed")
	}
}

func TestHintSetClone(t *testing.T) {
	h := NewHintSet()
	h.Arm(c3, c2, 5)
	h.Clear(c4, c2, 9)
	cp := h.Clone()
	cp.Clear(c3, c2, 5)
	cp.Arm(c4, c2, 10)
	if !h.Has(c3) {
		t.Error("Clone shares pending state")
	}
	if h.Has(c4) {
		t.Error("Clone shares cleared state")
	}
}
