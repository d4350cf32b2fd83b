package vclock

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Generate lets testing/quick build interesting stamps: small sequence
// numbers so that collisions (equal Seq, different Eps) actually occur.
func (Stamp) Generate(r *rand.Rand, _ int) reflect.Value {
	s := Stamp{Seq: uint64(r.Intn(6)), Eps: r.Intn(2) == 0}
	if s.Seq == 0 {
		s.Eps = false // canonical zero
	}
	return reflect.ValueOf(s)
}

func TestStampDead(t *testing.T) {
	tests := []struct {
		s    Stamp
		dead bool
	}{
		{Zero, true},
		{At(1), false},
		{At(99), false},
		{Eps(1), true},
		{Eps(0), true},
	}
	for _, tt := range tests {
		if got := tt.s.Dead(); got != tt.dead {
			t.Errorf("%v.Dead() = %t, want %t", tt.s, got, tt.dead)
		}
		if got := tt.s.Live(); got == tt.dead {
			t.Errorf("%v.Live() = %t, want %t", tt.s, got, !tt.dead)
		}
	}
}

func TestStampLess(t *testing.T) {
	tests := []struct {
		a, b Stamp
		less bool
	}{
		{Zero, At(1), true},
		{At(1), Zero, false},
		{At(1), At(2), true},
		{At(2), At(1), false},
		{At(3), Eps(3), true},  // destruction supersedes same-seq creation
		{Eps(3), At(3), false}, //
		{Eps(3), At(4), true},  // later creation supersedes destruction
		{At(4), Eps(3), false},
		{At(3), At(3), false}, // irreflexive
		{Eps(3), Eps(3), false},
	}
	for _, tt := range tests {
		if got := tt.a.Less(tt.b); got != tt.less {
			t.Errorf("%v.Less(%v) = %t, want %t", tt.a, tt.b, got, tt.less)
		}
	}
}

func TestStampMergeBasics(t *testing.T) {
	if got := At(2).Merge(Eps(3)); got != Eps(3) {
		t.Errorf("At(2).Merge(Eps(3)) = %v, want Ē3", got)
	}
	if got := Eps(3).Merge(At(4)); got != At(4) {
		t.Errorf("Eps(3).Merge(At(4)) = %v, want 4", got)
	}
	if got := At(3).Merge(Eps(3)); got != Eps(3) {
		t.Errorf("At(3).Merge(Eps(3)) = %v, want Ē3 (destruction wins ties)", got)
	}
}

func TestStampMergeProperties(t *testing.T) {
	commutative := func(a, b Stamp) bool { return a.Merge(b) == b.Merge(a) }
	associative := func(a, b, c Stamp) bool {
		return a.Merge(b).Merge(c) == a.Merge(b.Merge(c))
	}
	idempotent := func(a Stamp) bool { return a.Merge(a) == a }
	monotone := func(a, b Stamp) bool {
		m := a.Merge(b)
		return !m.Less(a) && !m.Less(b)
	}
	for name, f := range map[string]interface{}{
		"commutative": commutative,
		"associative": associative,
		"idempotent":  idempotent,
		"monotone":    monotone,
	} {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("Merge %s: %v", name, err)
		}
	}
}

func TestStampString(t *testing.T) {
	tests := []struct {
		s    Stamp
		want string
	}{
		{Zero, "0"},
		{At(17), "17"},
		{Eps(17), "Ē17"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}
