package vclock

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"causalgc/internal/ids"
)

var (
	r1 = ids.ClusterID{Site: 1, Seq: 1, Root: true}
	c2 = ids.ClusterID{Site: 2, Seq: 1}
	c3 = ids.ClusterID{Site: 3, Seq: 1}
	c4 = ids.ClusterID{Site: 4, Seq: 1}
)

// genVector builds a small random vector over {r1, c2, c3, c4}.
func genVector(r *rand.Rand) Vector {
	cols := []ids.ClusterID{r1, c2, c3, c4}
	v := NewVector()
	for _, q := range cols {
		switch r.Intn(4) {
		case 0: // absent
		case 1:
			v.Set(q, At(uint64(1+r.Intn(4))))
		case 2:
			v.Set(q, Eps(uint64(1+r.Intn(4))))
		case 3:
			v.Set(q, At(uint64(1+r.Intn(2))))
		}
	}
	return v
}

type qvec struct{ V Vector }

func (qvec) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(qvec{V: genVector(r)})
}

func TestVectorSetGet(t *testing.T) {
	v := NewVector()
	if got := v.Get(c2); got != Zero {
		t.Errorf("Get on empty = %v, want zero", got)
	}
	v.Set(c2, At(3))
	if got := v.Get(c2); got != At(3) {
		t.Errorf("Get = %v, want 3", got)
	}
	v.Set(c2, Zero)
	if _, ok := v[c2]; ok {
		t.Error("Set(Zero) must delete the entry (canonical form)")
	}
}

func TestVectorMergeEntry(t *testing.T) {
	v := NewVector()
	if !v.MergeEntry(c2, At(1)) {
		t.Error("MergeEntry new entry should report change")
	}
	if v.MergeEntry(c2, At(1)) {
		t.Error("MergeEntry same stamp should not report change")
	}
	if !v.MergeEntry(c2, Eps(1)) {
		t.Error("MergeEntry Ē1 over 1 should supersede")
	}
	if got := v.Get(c2); got != Eps(1) {
		t.Errorf("entry = %v, want Ē1", got)
	}
}

func TestVectorMergeAllIdempotentCommutativeMonotone(t *testing.T) {
	idempotent := func(a qvec) bool {
		v := a.V.Clone()
		v.MergeAll(a.V)
		return v.Equal(a.V)
	}
	commutative := func(a, b qvec) bool {
		x := a.V.Clone()
		x.MergeAll(b.V)
		y := b.V.Clone()
		y.MergeAll(a.V)
		return x.Equal(y)
	}
	upperBound := func(a, b qvec) bool {
		x := a.V.Clone()
		x.MergeAll(b.V)
		return a.V.LEq(x) && b.V.LEq(x)
	}
	for name, f := range map[string]interface{}{
		"idempotent": idempotent, "commutative": commutative, "upperBound": upperBound,
	} {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("MergeAll %s: %v", name, err)
		}
	}
}

func TestVectorPartialOrder(t *testing.T) {
	a := Vector{r1: At(1), c2: At(1), c3: At(2), c4: At(2)} // V(e4,2)
	b := Vector{r1: At(1), c2: At(2), c3: At(2), c4: At(2)} // V(e2,2)
	// Paper §3.2: V(e4,2) < V(e2,2), i.e. (1,1,2,2) < (1,2,2,2).
	if !a.Before(b) {
		t.Errorf("want %v < %v (paper §3.2 example)", a, b)
	}
	if b.Before(a) {
		t.Errorf("want !(%v < %v)", b, a)
	}
	if !a.LEq(a) || a.Before(a) {
		t.Error("LEq must be reflexive, Before irreflexive")
	}

	x := Vector{c2: At(3)}
	y := Vector{c3: At(1)}
	if !x.Concurrent(y) {
		t.Errorf("want %v || %v", x, y)
	}
}

func TestVectorPartialOrderProperties(t *testing.T) {
	antisymmetric := func(a, b qvec) bool {
		if a.V.LEq(b.V) && b.V.LEq(a.V) {
			return a.V.Equal(b.V)
		}
		return true
	}
	transitive := func(a, b, c qvec) bool {
		if a.V.LEq(b.V) && b.V.LEq(c.V) {
			return a.V.LEq(c.V)
		}
		return true
	}
	for name, f := range map[string]interface{}{
		"antisymmetric": antisymmetric, "transitive": transitive,
	} {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("LEq %s: %v", name, err)
		}
	}
}

func TestVectorHasLiveRoot(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want bool
	}{
		{"empty", NewVector(), false},
		{"live root", Vector{r1: At(1)}, true},
		{"dead root", Vector{r1: Eps(1)}, false},
		{"live non-root only", Vector{c2: At(5), c3: At(1)}, false},
		{"mixed", Vector{r1: Eps(2), c2: At(5)}, false},
		{"root among others", Vector{r1: At(2), c2: Eps(5)}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.HasLiveRoot(); got != tt.want {
				t.Errorf("HasLiveRoot(%v) = %t, want %t", tt.v, got, tt.want)
			}
		})
	}
}

func TestVectorLiveColumns(t *testing.T) {
	v := Vector{r1: Eps(1), c2: At(1), c4: At(2)}
	got := v.LiveColumns()
	want := []ids.ClusterID{c2, c4}
	if len(got) != len(want) {
		t.Fatalf("LiveColumns = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LiveColumns = %v, want %v", got, want)
		}
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{c2: At(1)}
	w := v.Clone()
	w.Set(c2, At(9))
	w.Set(c3, At(1))
	if v.Get(c2) != At(1) || v.Get(c3) != Zero {
		t.Error("Clone is not independent")
	}
}

func TestVectorRender(t *testing.T) {
	order := []ids.ClusterID{r1, c2, c3, c4}
	v := Vector{r1: Eps(1), c2: At(3), c3: At(2), c4: At(2)}
	if got, want := v.Render(order), "(Ē1,3,2,2)"; got != want {
		t.Errorf("Render = %q, want %q", got, want)
	}
	if got, want := NewVector().Render(order), "(0,0,0,0)"; got != want {
		t.Errorf("Render empty = %q, want %q", got, want)
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{c2: At(3), r1: At(1)}
	if got, want := v.String(), "{s1/R1:1 s2/c1:3}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestVectorEqualSemantics(t *testing.T) {
	a := Vector{c2: At(1)}
	b := Vector{c2: At(1)}
	if !a.Equal(b) {
		t.Error("identical vectors must be Equal")
	}
	// Non-canonical: an explicit zero entry must compare equal to absence.
	c := Vector{c2: At(1), c3: Zero}
	if !a.Equal(c) || !c.Equal(a) {
		t.Error("zero entry must equal absence")
	}
}
