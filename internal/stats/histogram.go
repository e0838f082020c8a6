package stats

// IntHistogram counts occurrences of small non-negative integer values,
// used for Hamming-distance distributions (Tables III and IV).
type IntHistogram struct {
	Counts map[int]int
	total  int
}

// NewIntHistogram returns an empty integer histogram.
func NewIntHistogram() *IntHistogram {
	return &IntHistogram{Counts: make(map[int]int)}
}

// Add records one observation of value v.
func (h *IntHistogram) Add(v int) {
	h.Counts[v]++
	h.total++
}

// Total returns the number of observations recorded.
func (h *IntHistogram) Total() int { return h.total }

// Percent returns the percentage (0–100) of observations equal to v.
func (h *IntHistogram) Percent(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return 100 * float64(h.Counts[v]) / float64(h.total)
}

// Keys returns the observed values in ascending order.
func (h *IntHistogram) Keys() []int {
	keys := make([]int, 0, len(h.Counts))
	for k := range h.Counts {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; key sets are tiny
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
