package obs

import "math/bits"

// Sketch is a streaming quantile sketch over int64 observations: an
// HDR-style log-linear bucketing (exact below 2^(subBits+1), then
// 2^subBits sub-buckets per power of two) that answers p50/p95/p99
// queries with bounded relative error and without storing raw
// observations. All bucket math is integer-only (bits.Len64, shifts),
// so results are bit-identical across platforms; no float log is ever
// taken.
type Sketch struct {
	zero int64
	pos  []int64 // counts indexed by sketchIndex(v), v > 0
	neg  []int64 // counts indexed by sketchIndex(-v), v < 0
	n    int64
}

// sketchSubBits sets the relative resolution: each power-of-two range is
// split into 2^sketchSubBits sub-buckets, bounding the relative error of
// a quantile estimate by 2^-(sketchSubBits+1) ≈ 1.6%.
const sketchSubBits = 5

// sketchIndex maps a positive value to its bucket. Values below
// 2^(subBits+1) map to themselves (exact); larger values map
// log-linearly. The mapping is monotone and contiguous.
func sketchIndex(v uint64) int {
	e := bits.Len64(v) - 1
	if e <= sketchSubBits {
		return int(v)
	}
	return ((e - sketchSubBits) << sketchSubBits) + int(v>>uint(e-sketchSubBits))
}

// sketchValue returns the representative value (bucket midpoint) of a
// bucket index produced by sketchIndex.
func sketchValue(idx int) int64 {
	if idx < 1<<(sketchSubBits+1) {
		return int64(idx)
	}
	b := uint(idx>>sketchSubBits) - 1
	m := int64(idx&(1<<sketchSubBits-1) | 1<<sketchSubBits)
	lower := m << b
	return lower + int64(1)<<b/2
}

// Observe records one value.
func (s *Sketch) Observe(v int64) {
	s.n++
	switch {
	case v == 0:
		s.zero++
	case v > 0:
		idx := sketchIndex(uint64(v))
		if idx >= len(s.pos) {
			s.pos = append(s.pos, make([]int64, idx+1-len(s.pos))...)
		}
		s.pos[idx]++
	default:
		// math.MinInt64 negates to itself; treat its magnitude as unsigned.
		idx := sketchIndex(uint64(-v))
		if idx >= len(s.neg) {
			s.neg = append(s.neg, make([]int64, idx+1-len(s.neg))...)
		}
		s.neg[idx]++
	}
}

// Count returns the number of observations.
func (s *Sketch) Count() int64 { return s.n }

// Quantile returns the q-th quantile estimate (q in [0, 1]); 0 when the
// sketch is empty. Estimates are bucket midpoints: exact for small
// magnitudes, within ~1.6% relative error otherwise.
func (s *Sketch) Quantile(q float64) int64 {
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is 1-based: the k-th smallest observation with k in [1, n].
	rank := int64(q*float64(s.n-1)) + 1
	var seen int64
	// Ascending order: most negative first (negative magnitudes descend).
	for idx := len(s.neg) - 1; idx >= 0; idx-- {
		if c := s.neg[idx]; c > 0 {
			seen += c
			if seen >= rank {
				return -sketchValue(idx)
			}
		}
	}
	seen += s.zero
	if seen >= rank {
		return 0
	}
	for idx, c := range s.pos {
		if c > 0 {
			seen += c
			if seen >= rank {
				return sketchValue(idx)
			}
		}
	}
	return 0 // unreachable: counts sum to n
}

// Reset discards all observations, keeping the bucket allocations.
func (s *Sketch) Reset() {
	s.n = 0
	s.zero = 0
	clear(s.pos)
	clear(s.neg)
}
