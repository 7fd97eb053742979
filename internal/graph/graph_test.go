package graph

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
	if r.Intn(0) != 0 || r.Intn(-3) != 0 {
		t.Error("Intn of non-positive bound should be 0")
	}
}

func TestGeneratorsProduceValidCSR(t *testing.T) {
	gs := map[string]*CSR{
		"urand":   URand(256, 8, 1),
		"kron":    Kron(8, 8, 2),
		"road":    Road(16, 3),
		"web":     Web(256, 4),
		"twitter": Twitter(256, 8, 5),
	}
	for name, g := range gs {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.Edges() == 0 {
			t.Errorf("%s: no edges", name)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Kron(8, 8, 42)
	b := Kron(8, 8, 42)
	if a.Edges() != b.Edges() {
		t.Fatal("kron not deterministic")
	}
	for i := range a.Neigh {
		if a.Neigh[i] != b.Neigh[i] {
			t.Fatal("kron adjacency differs between runs")
		}
	}
}

func TestKronHeavyTail(t *testing.T) {
	g := Kron(10, 16, 1)
	// RMAT graphs concentrate edges: the max degree should far exceed
	// the mean, unlike urand.
	var maxDeg, total int64
	for u := int64(0); u < g.N; u++ {
		d := g.Degree(u)
		total += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := total / g.N
	if maxDeg < 5*mean {
		t.Errorf("kron max degree %d vs mean %d: expected a heavy tail", maxDeg, mean)
	}
}

func TestURandFlatDegrees(t *testing.T) {
	g := URand(1024, 8, 1)
	var maxDeg int64
	for u := int64(0); u < g.N; u++ {
		if d := g.Degree(u); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg > 16 {
		t.Errorf("urand max degree %d: expected near-uniform (<= 2x target)", maxDeg)
	}
}

func TestRoadBoundedDegree(t *testing.T) {
	g := Road(20, 1)
	for u := int64(0); u < g.N; u++ {
		if d := g.Degree(u); d > 6 {
			t.Fatalf("road node %d has degree %d, want <= 6 (grid + ramp)", u, d)
		}
	}
	if g.N != 400 {
		t.Errorf("road N = %d, want 400", g.N)
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	g := Undirected(Kron(7, 6, 9))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := int64(0); u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			found := false
			for _, w := range g.Neighbors(v) {
				if w == u {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d has no reverse", u, v)
			}
		}
	}
}

func TestCompactDropsSelfLoopsAndDuplicates(t *testing.T) {
	g := sized(3, []int64{6, 1, 0})
	rows := [][]int64{
		{1, 1, 0, 2, 2, 2}, // self-loop 0 and duplicates
		{0},
		{},
	}
	for u, ns := range rows {
		copy(g.Neigh[g.Offsets[u]:], ns)
	}
	g.compact()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ns := g.Neighbors(0)
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 2 {
		t.Errorf("node 0 adjacency = %v, want [1 2]", ns)
	}
}

func TestEdgeWeightRangeProperty(t *testing.T) {
	f := func(e int64) bool {
		w := EdgeWeight(e)
		return w >= 1 && w <= 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if EdgeWeight(12345) != EdgeWeight(12345) {
		t.Error("EdgeWeight not deterministic")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := URand(64, 4, 1)
	g.Neigh[0] = 1 << 40 // out of range
	if err := g.Validate(); err == nil {
		t.Error("out-of-range neighbour not caught")
	}
	g2 := URand(64, 4, 1)
	g2.Offsets[3] = g2.Offsets[4] + 1 // non-monotone
	if err := g2.Validate(); err == nil {
		t.Error("non-monotone offsets not caught")
	}
}

func TestWebPowerLawOutDegrees(t *testing.T) {
	g := Web(4096, 1)
	// Power-law out-degrees: many small, some large.
	small, large := 0, 0
	for u := int64(0); u < g.N; u++ {
		d := g.Degree(u)
		if d <= 8 {
			small++
		}
		if d >= 24 {
			large++
		}
	}
	if small < int(g.N)/3 {
		t.Errorf("web: only %d/%d low-degree pages", small, g.N)
	}
	if large == 0 {
		t.Error("web: no high-degree pages")
	}
}

func TestTwitterCelebrityInDegrees(t *testing.T) {
	g := Twitter(4096, 16, 1)
	indeg := make([]int64, g.N)
	for u := int64(0); u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			indeg[v]++
		}
	}
	// The most-followed node must dwarf the median.
	var maxIn int64
	for _, d := range indeg {
		if d > maxIn {
			maxIn = d
		}
	}
	mean := g.Edges() / g.N
	if maxIn < 20*mean {
		t.Errorf("twitter: max in-degree %d vs mean %d — no celebrities", maxIn, mean)
	}
}

func TestRoadHighDiameterStructure(t *testing.T) {
	// BFS from a corner: the eccentricity of a grid is about 2*side.
	g := Undirected(Road(32, 1))
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	q := []int64{0}
	var maxD int64
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				if dist[v] > maxD {
					maxD = dist[v]
				}
				q = append(q, v)
			}
		}
	}
	// Highway ramps shrink it somewhat; still far beyond a random graph's ~5.
	if maxD < 15 {
		t.Errorf("road eccentricity %d too small — locality structure missing", maxD)
	}
}

func TestUndirectedDoublesEdgesAtMost(t *testing.T) {
	g := URand(512, 8, 3)
	u := Undirected(g)
	if u.Edges() < g.Edges() || u.Edges() > 2*g.Edges() {
		t.Errorf("undirected edges %d out of [%d, %d]", u.Edges(), g.Edges(), 2*g.Edges())
	}
}

func TestUndirectedAllocs(t *testing.T) {
	g := Kron(12, 12, 26)
	// Undirected allocates a fixed handful of flat arrays whatever the
	// graph's size, never one slice per node.
	if n := testing.AllocsPerRun(3, func() { Undirected(g) }); n > 8 {
		t.Errorf("Undirected(Kron(12,12,26)) made %.0f allocations, want <= 8", n)
	}
}
