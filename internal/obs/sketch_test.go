package obs

import (
	"math"
	"sort"
	"testing"
)

// exactQuantile computes the reference quantile: the k-th smallest
// observation at the same 1-based rank the sketch uses.
func exactQuantile(vals []int64, q float64) int64 {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int64(q*float64(len(s)-1)) + 1
	return s[rank-1]
}

// sketchFrom observes all values into a fresh sketch.
func sketchFrom(vals []int64) *Sketch {
	var s Sketch
	for _, v := range vals {
		s.Observe(v)
	}
	return &s
}

// TestSketchExactSmallValues: magnitudes below 2^(subBits+1) map to
// their own buckets, so quantiles over small values are exact.
func TestSketchExactSmallValues(t *testing.T) {
	var vals []int64
	for v := int64(-40); v <= 40; v++ {
		vals = append(vals, v)
	}
	s := sketchFrom(vals)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
		if got, want := s.Quantile(q), exactQuantile(vals, q); got != want {
			t.Errorf("q=%v: got %d, want %d", q, got, want)
		}
	}
}

// TestSketchRelativeError: large magnitudes are bucketed log-linearly
// with 2^subBits sub-buckets per octave, bounding relative error.
func TestSketchRelativeError(t *testing.T) {
	// A deterministic LCG spread over several octaves, both signs.
	var vals []int64
	x := uint64(12345)
	for i := 0; i < 5000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := int64(x % 1_000_000)
		if x&(1<<63) != 0 {
			v = -v
		}
		vals = append(vals, v)
	}
	s := sketchFrom(vals)
	maxRel := 1.0 / float64(int64(1)<<(sketchSubBits+1)) // bucket half-width
	for _, q := range []float64{0.01, 0.05, 0.5, 0.95, 0.99} {
		got := s.Quantile(q)
		want := exactQuantile(vals, q)
		if want == 0 {
			if got != 0 {
				t.Errorf("q=%v: got %d, want 0", q, got)
			}
			continue
		}
		rel := math.Abs(float64(got)-float64(want)) / math.Abs(float64(want))
		if rel > maxRel+1e-12 {
			t.Errorf("q=%v: got %d, want %d (rel err %.4f > %.4f)", q, got, want, rel, maxRel)
		}
	}
}

// TestSketchIndexMonotoneContiguous: the bucket mapping must be monotone
// (never decreasing) and contiguous (no skipped indices) so quantile
// walks visit values in order.
func TestSketchIndexMonotoneContiguous(t *testing.T) {
	prev := sketchIndex(1)
	if prev != 1 {
		t.Fatalf("sketchIndex(1) = %d, want 1", prev)
	}
	for v := uint64(2); v < 1<<16; v++ {
		idx := sketchIndex(v)
		if idx < prev || idx > prev+1 {
			t.Fatalf("sketchIndex(%d) = %d after %d: not monotone-contiguous", v, idx, prev)
		}
		prev = idx
	}
}

// TestSketchValueRoundTrip: a bucket's representative value must map
// back to the same bucket.
func TestSketchValueRoundTrip(t *testing.T) {
	seen := map[int]bool{}
	for v := uint64(1); v < 1<<20; v = v*17/16 + 1 {
		idx := sketchIndex(v)
		if seen[idx] {
			continue
		}
		seen[idx] = true
		rep := sketchValue(idx)
		if rep <= 0 {
			t.Fatalf("sketchValue(%d) = %d, not positive", idx, rep)
		}
		if back := sketchIndex(uint64(rep)); back != idx {
			t.Errorf("bucket %d: representative %d maps back to bucket %d", idx, rep, back)
		}
	}
}

// TestSketchReset keeps allocations but discards observations.
func TestSketchReset(t *testing.T) {
	s := sketchFrom([]int64{1, 100, -50, 0})
	s.Reset()
	if s.Count() != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("reset sketch not empty: count=%d", s.Count())
	}
	s.Observe(7)
	if got := s.Quantile(0.5); got != 7 {
		t.Fatalf("post-reset quantile = %d, want 7", got)
	}
}
