package dict

import (
	"testing"

	"repro/internal/model"
)

func TestInternLookupTerm(t *testing.T) {
	d := New()
	a := d.intern("apple")
	b := d.intern("banana")
	if a == b {
		t.Fatal("distinct terms share an id")
	}
	if again := d.intern("apple"); again != a {
		t.Errorf("re-intern gave %d, want %d", again, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if id, ok := d.Lookup("banana"); !ok || id != b {
		t.Errorf("Lookup(banana) = %d, %v", id, ok)
	}
	if _, ok := d.Lookup("cherry"); ok {
		t.Error("Lookup of missing term succeeded")
	}
	if d.Term(a) != "apple" || d.Term(b) != "banana" {
		t.Error("Term round-trip failed")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var d Dictionary
	id := d.intern("x")
	if d.Term(id) != "x" {
		t.Error("zero-value dictionary broken")
	}
}

func TestAddObjectFrequencies(t *testing.T) {
	d := New()
	e1 := d.AddObject([]string{"a", "b", "a"}) // dup "a" counted once
	e2 := d.AddObject([]string{"b", "c"})
	if len(e1) != 2 {
		t.Fatalf("normalized elems = %v", e1)
	}
	a, _ := d.Lookup("a")
	b, _ := d.Lookup("b")
	c, _ := d.Lookup("c")
	if d.freq(a) != 1 || d.freq(b) != 2 || d.freq(c) != 1 {
		t.Errorf("freqs = %d %d %d", d.freq(a), d.freq(b), d.freq(c))
	}
	_ = e2
	if d.freq(model.ElemID(99)) != 0 {
		t.Error("Freq out of range should be 0")
	}
}

func TestAddElemsGrows(t *testing.T) {
	var d Dictionary
	d.AddElems([]model.ElemID{5, 2})
	if d.freq(5) != 1 || d.freq(2) != 1 || d.freq(3) != 0 {
		t.Errorf("freqs after AddElems: %d %d %d", d.freq(5), d.freq(2), d.freq(3))
	}
	if d.Len() != 6 {
		t.Errorf("Len = %d, want 6", d.Len())
	}
}

func TestPlanOrder(t *testing.T) {
	freqs := []int{10, 1, 5, 1}
	got := PlanOrder(nil, []model.ElemID{0, 1, 2, 3}, freqs)
	want := []model.ElemID{1, 3, 2, 0} // ties broken by id
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PlanOrder = %v, want %v", got, want)
		}
	}
	// Input must not be mutated.
	in := []model.ElemID{0, 1}
	_ = PlanOrder(nil, in, freqs)
	if in[0] != 0 || in[1] != 1 {
		t.Error("PlanOrder mutated its input")
	}
	// Out-of-range ids are treated as frequency 0.
	got = PlanOrder(nil, []model.ElemID{0, 9}, freqs)
	if got[0] != 9 {
		t.Errorf("out-of-range elem should sort first, got %v", got)
	}
}
