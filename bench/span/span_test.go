package span

import "testing"

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 4, Parent: 0},
		{Name: "a.1", Start: 2, End: 3, Parent: 1},
		{Name: "b", Start: 3, End: 6, Parent: 0},  // overlaps a: the union [1,6] counts once
		{Name: "c", Start: 9, End: 12, Parent: 0}, // clipped to the root's end
	}
	want := []float64{10 - 5 - 1, 3 - 1, 1, 3, 3}
	for i, got := range SelfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
	l := Layers(spans)
	if l["root"].Self != 4 || l["a"].Total != 3 || l["c"].Count != 1 {
		t.Errorf("layers = %+v", l)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := NewRecorder()
	outer := r.Start("outer")
	inner := r.Start("inner")
	r.End(inner)
	r.Rename(inner, "renamed")
	next := r.Start("next")
	r.End(next)
	r.End(outer)
	top := r.Start("top")
	r.End(top)
	spans := r.Spans()
	wantParents := []int{-1, 0, 0, -1}
	for i, s := range spans {
		if s.Parent != wantParents[i] || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d", i, s, wantParents[i])
		}
	}
	if spans[1].Name != "renamed" {
		t.Errorf("rename lost: %q", spans[1].Name)
	}
}
