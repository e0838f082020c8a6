package stats

import "testing"

func TestIntHistogram(t *testing.T) {
	h := NewIntHistogram()
	for _, v := range []int{3, 1, 3, 3, 2} {
		h.Add(v)
	}
	if h.Total() != 5 {
		t.Fatalf("Total = %d, want 5", h.Total())
	}
	if got := h.Percent(3); got != 60 {
		t.Errorf("Percent(3) = %g, want 60", got)
	}
	if got := h.Percent(99); got != 0 {
		t.Errorf("Percent(99) = %g, want 0", got)
	}
	keys := h.Keys()
	want := []int{1, 2, 3}
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
}

func TestIntHistogramEmpty(t *testing.T) {
	h := NewIntHistogram()
	if h.Percent(0) != 0 {
		t.Error("Percent on empty histogram should be 0")
	}
	if len(h.Keys()) != 0 {
		t.Error("Keys on empty histogram should be empty")
	}
}
