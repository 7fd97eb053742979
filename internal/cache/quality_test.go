package cache

import (
	"testing"

	"ghostthread/internal/mem"
)

func TestPrefetchTimely(t *testing.T) {
	h := testHierarchy()
	pf := h.PrefetchAccess(0x100, 0)
	if !pf.NewMiss {
		t.Fatal("cold prefetch did not allocate a fill")
	}
	q := h.PrefetchQuality()
	if q.Issued != 1 || q.Redundant != 0 {
		t.Fatalf("after prefetch: issued=%d redundant=%d, want 1/0", q.Issued, q.Redundant)
	}
	// Demand load arrives well after the fill lands: timely.
	h.DemandAccess(0x100, pf.CompleteAt+100)
	q = h.PrefetchQuality()
	if q.Timely != 1 || q.Late != 0 {
		t.Fatalf("timely=%d late=%d, want 1/0", q.Timely, q.Late)
	}
	// Second demand touch must not reclassify (tag consumed).
	h.DemandAccess(0x100, pf.CompleteAt+200)
	if q2 := h.PrefetchQuality(); q2.Timely != 1 {
		t.Fatalf("second touch reclassified: timely=%d", q2.Timely)
	}
}

func TestPrefetchLate(t *testing.T) {
	h := testHierarchy()
	pf := h.PrefetchAccess(0x200, 0)
	// Demand load arrives while the fill is still in flight: late.
	h.DemandAccess(0x200, pf.CompleteAt/2)
	q := h.PrefetchQuality()
	if q.Late != 1 || q.Timely != 0 {
		t.Fatalf("late=%d timely=%d, want 1/0", q.Late, q.Timely)
	}
}

func TestPrefetchEvictedUnused(t *testing.T) {
	h := testHierarchy()
	h.PrefetchAccess(0x300, 0)
	// Thrash L1 with demand lines mapping over the whole cache so the
	// never-touched prefetched line is evicted: pollution.
	l1Words := DefaultHierarchyConfig().L1.SizeWords
	for a := int64(0); a < 2*l1Words; a += mem.LineWords {
		h.Access(0x10000+a, 1000)
	}
	q := h.PrefetchQuality()
	if q.Evicted != 1 {
		t.Fatalf("evicted=%d, want 1", q.Evicted)
	}
	if q.Timely != 0 || q.Late != 0 {
		t.Fatalf("evicted line was also classified used: %+v", q)
	}
}

func TestPrefetchRedundant(t *testing.T) {
	h := testHierarchy()
	r1 := h.PrefetchAccess(0x400, 0)
	// Same line again while in flight, and again after the fill: both
	// redundant, neither issues.
	h.PrefetchAccess(0x401, 5)
	h.PrefetchAccess(0x400, r1.CompleteAt+10)
	q := h.PrefetchQuality()
	if q.Issued != 1 || q.Redundant != 2 {
		t.Fatalf("issued=%d redundant=%d, want 1/2", q.Issued, q.Redundant)
	}
}

func TestPrefetchQualityDerived(t *testing.T) {
	q := PrefetchQuality{Issued: 10, Redundant: 2, Timely: 4, Late: 2, Evicted: 1}
	if q.Useful() != 6 {
		t.Fatalf("useful = %d, want 6", q.Useful())
	}
	if q.Unused() != 3 { // 10 - 4 - 2 - 1 = 3 still tagged at end of run
		t.Fatalf("unused = %d, want 3", q.Unused())
	}
	if got, want := q.Accuracy(), 6.0/12.0; got != want {
		t.Fatalf("accuracy = %v, want %v", got, want)
	}
	if got, want := q.Timeliness(), 4.0/6.0; got != want {
		t.Fatalf("timeliness = %v, want %v", got, want)
	}
	var zero PrefetchQuality
	if zero.Accuracy() != 0 || zero.Timeliness() != 0 || zero.Unused() != 0 {
		t.Fatal("zero-value ratios must be 0, not NaN")
	}

	var sum PrefetchQuality
	sum.Add(q)
	sum.Add(q)
	if sum.Issued != 20 || sum.Timely != 8 || sum.Evicted != 2 {
		t.Fatalf("Add accumulated wrong: %+v", sum)
	}
}

func TestPrefetchClassificationOnlyOnDemand(t *testing.T) {
	h := testHierarchy()
	r1 := h.PrefetchAccess(0x500, 0)
	// A second prefetch touching the (filled) line is not a demand touch:
	// the tag must survive for the real consumer.
	h.PrefetchAccess(0x500, r1.CompleteAt+5)
	if q := h.PrefetchQuality(); q.Timely != 0 && q.Late != 0 {
		t.Fatalf("prefetch touch consumed the classification tag: %+v", q)
	}
	h.DemandAccess(0x500, r1.CompleteAt+10)
	if q := h.PrefetchQuality(); q.Timely != 1 {
		t.Fatalf("demand touch after prefetch touch: timely=%d, want 1", q.Timely)
	}
}
