package cpu

import (
	"math/rand"
	"testing"

	"ghostthread/internal/cache"
	"ghostthread/internal/mem"
)

// mapShadow is the reference oracle for TestShadowBitsetMatchesMap: the
// same verdict rules as shadowOracle, with the demanded set kept in a map.
type mapShadow struct {
	demanded map[int64]bool
	pending  []int64
	stats    ShadowStats
}

func (o *mapShadow) demand(addr int64) { o.demanded[cache.LineOf(addr)] = true }

func (o *mapShadow) prefetch(addr int64) {
	line := cache.LineOf(addr)
	if o.demanded[line] {
		o.stats.Confirmed++
		return
	}
	o.pending = append(o.pending, line)
	if len(o.pending) > DefaultShadowBuffer {
		head := o.pending[0]
		o.pending = o.pending[1:]
		if o.demanded[head] {
			o.stats.Confirmed++
		} else {
			o.stats.Orphaned++
		}
	}
}

func (o *mapShadow) finalize() ShadowStats {
	for _, line := range o.pending {
		if o.demanded[line] {
			o.stats.Confirmed++
		} else {
			o.stats.Divergent++
		}
	}
	o.pending = nil
	return o.stats
}

// TestShadowBitsetMatchesMap drives the bitset oracle and a map-based
// reference with the same seeded demand and prefetch streams and
// requires equal verdicts. The streams cover prefetch lines that are
// negative or beyond the memory size (never demandable), enough pending
// prefetches to overflow the DefaultShadowBuffer-deep FIFO, and demands
// that arrive after their prefetch was evicted.
func TestShadowBitsetMatchesMap(t *testing.T) {
	const size = 1 << 16 // words of simulated memory; demands stay inside
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := &shadowOracle{}
		ref := &mapShadow{demanded: map[int64]bool{}}
		// Prefetch-heavy early so the FIFO overflows, then demand-heavy
		// so demands land on lines already evicted as orphans.
		for i := 0; i < 40000; i++ {
			demandP := 10
			if i > 20000 {
				demandP = 70
			}
			if rng.Intn(100) < demandP {
				addr := rng.Int63n(size)
				got.demand(addr)
				ref.demand(addr)
				continue
			}
			var addr int64
			switch r := rng.Intn(20); {
			case r == 0:
				addr = -1 - rng.Int63n(1<<20) // negative
			case r == 1:
				addr = size + rng.Int63n(1<<40) // beyond memory
			default:
				addr = rng.Int63n(size)
			}
			got.prefetch(addr)
			ref.prefetch(addr)
		}
		got.finalize()
		want := ref.finalize()
		if got.stats != want {
			t.Errorf("seed %d: bitset oracle %+v, map reference %+v", seed, got.stats, want)
		}
		if want.Confirmed == 0 || want.Divergent == 0 || want.Orphaned == 0 {
			t.Errorf("seed %d: streams miss a verdict class (%+v); the comparison is vacuous", seed, want)
		}
	}
}

// TestShadowOutOfRangeLines pins the bitset's edges: a negative line and
// a line past every demanded one read as never demanded, and a demand
// that arrives after its prefetch was evicted leaves that prefetch
// orphaned.
func TestShadowOutOfRangeLines(t *testing.T) {
	const w = mem.LineWords
	o := &shadowOracle{}
	o.demand(0)
	o.prefetch(-w)      // line -1: never demandable
	o.prefetch(5)       // line 0: confirmed at once
	o.prefetch(100 * w) // evicted below, demanded only afterwards
	o.prefetch(1 << 40) // far beyond the bitset
	for i := int64(0); i < DefaultShadowBuffer-1; i++ {
		o.prefetch((1000 + i) * w)
	}
	// The FIFO held 4098 lines, so lines -1 and 100 were evicted unjudged.
	o.demand(100 * w)
	o.demand(1000 * w)
	o.finalize()
	want := ShadowStats{Confirmed: 2, Divergent: DefaultShadowBuffer - 1, Orphaned: 2}
	if o.stats != want {
		t.Errorf("stats %+v, want %+v", o.stats, want)
	}
}
