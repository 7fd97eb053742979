// Package graph provides the compressed-sparse-row graphs and synthetic
// generators the GAP workloads run on. The paper evaluates five inputs per
// kernel — two synthetic (kron, urand) and three real-world (twitter,
// road, web); downloading the real graphs is impossible offline and they
// are far too large for a cycle-level simulator, so this package
// synthesises scaled-down graphs with the same distinguishing structure:
//
//	kron    — RMAT/Kronecker, heavy-tailed degrees, low locality
//	urand   — uniform random, flat degrees, no locality
//	twitter — heavy-tailed "celebrity" in-degrees (Zipf targets)
//	road    — bounded-degree grid, high locality, huge diameter
//	web     — power-law out-degrees with host-local clustering
//
// All generation is deterministic given the seed.
package graph

import (
	"fmt"
	"slices"
)

// RNG is a small xorshift64* generator; deterministic and fast, so graph
// construction is reproducible without math/rand.
type RNG struct{ s uint64 }

// NewRNG seeds a generator (zero seeds are remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{s: seed}
}

// Next returns the next 64 random bits.
func (r *RNG) Next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.Next() % uint64(n))
}

// Float returns a uniform value in [0, 1).
func (r *RNG) Float() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}

// CSR is a directed graph in compressed-sparse-row form. Offsets has N+1
// entries; node u's neighbours are Neigh[Offsets[u]:Offsets[u+1]], sorted
// ascending and de-duplicated. Everything is int64 so the workload
// builders can copy it straight into simulated memory words.
//
// A CSR is read-only once its generator (or Undirected) returns it: the
// workloads package shares one instance across every build and goroutine
// of a process, so nothing may write Offsets or Neigh afterwards.
type CSR struct {
	N       int64
	Offsets []int64
	Neigh   []int64
}

// Edges returns the edge count.
func (g *CSR) Edges() int64 { return int64(len(g.Neigh)) }

// Degree returns node u's out-degree.
func (g *CSR) Degree(u int64) int64 { return g.Offsets[u+1] - g.Offsets[u] }

// Neighbors returns node u's adjacency slice.
func (g *CSR) Neighbors(u int64) []int64 { return g.Neigh[g.Offsets[u]:g.Offsets[u+1]] }

// Validate checks CSR invariants (for tests and generators).
func (g *CSR) Validate() error {
	if int64(len(g.Offsets)) != g.N+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.Offsets), g.N+1)
	}
	if g.Offsets[0] != 0 || g.Offsets[g.N] != int64(len(g.Neigh)) {
		return fmt.Errorf("graph: offsets endpoints %d..%d, want 0..%d",
			g.Offsets[0], g.Offsets[g.N], len(g.Neigh))
	}
	for u := int64(0); u < g.N; u++ {
		if g.Offsets[u] > g.Offsets[u+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", u)
		}
		ns := g.Neighbors(u)
		for i, v := range ns {
			if v < 0 || v >= g.N {
				return fmt.Errorf("graph: node %d has out-of-range neighbour %d", u, v)
			}
			if i > 0 && ns[i-1] >= v {
				return fmt.Errorf("graph: node %d adjacency not sorted/unique", u)
			}
		}
	}
	return nil
}

// sized returns a CSR of n rows with room for deg[u] edges in row u,
// and turns deg into each row's fill cursor: a counting sort's first two
// steps (count, prefix-sum). The caller then writes row u's edges at
// Neigh[deg[u]], bumping deg[u].
func sized(n int64, deg []int64) *CSR {
	g := &CSR{N: n, Offsets: make([]int64, n+1)}
	for u, d := range deg {
		g.Offsets[u+1] = g.Offsets[u] + d
		deg[u] = g.Offsets[u]
	}
	g.Neigh = make([]int64, g.Offsets[n])
	return g
}

// compact finishes every generator: it sorts each row, drops self-loops
// and duplicate targets, and closes the gaps in place, so row u ends up
// as the sorted set of u's distinct non-self targets whatever order they
// were filled in.
func (g *CSR) compact() *CSR {
	var w, start int64
	for u := int64(0); u < g.N; u++ {
		end := g.Offsets[u+1]
		row := g.Neigh[start:end]
		slices.Sort(row)
		g.Offsets[u] = w
		for i, v := range row {
			// w <= start+i: a write lands before row[i], or on row[i]
			// with its own value, so row[i] is intact when the next
			// element compares with it.
			if v == u || (i > 0 && row[i-1] == v) {
				continue
			}
			g.Neigh[w] = v
			w++
		}
		start = end
	}
	g.Offsets[g.N] = w
	g.Neigh = g.Neigh[:w]
	return g
}

// URand generates a uniform random graph: n nodes, deg out-edges each,
// uniformly random targets (GAP's -u generator).
func URand(n, deg int64, seed uint64) *CSR {
	r := NewRNG(seed)
	g := &CSR{N: n, Offsets: make([]int64, n+1), Neigh: make([]int64, n*deg)}
	for i := range g.Neigh {
		g.Neigh[i] = r.Intn(n)
	}
	for u := int64(1); u <= n; u++ {
		g.Offsets[u] = u * deg
	}
	return g.compact()
}

// Kron generates an RMAT/Kronecker graph with 2^scale nodes and about
// deg edges per node, using the Graph500 partition probabilities
// (a=0.57, b=0.19, c=0.19, d=0.05) that produce heavy-tailed degrees.
// Edges come in random source order, so they are buffered as (u, v)
// pairs and counting-sorted into rows.
func Kron(scale int, deg int64, seed uint64) *CSR {
	n := int64(1) << scale
	r := NewRNG(seed)
	edges := n * deg
	pairs := make([]int64, 0, 2*edges)
	degs := make([]int64, n)
	for e := int64(0); e < edges; e++ {
		var u, v int64
		for b := 0; b < scale; b++ {
			// Quadrant a (p < 0.57) sets no bit, b sets v's, c (p >= 0.76)
			// sets u's and d (p >= 0.95) both. The quadrant is random, so
			// the bits are computed without branches: a mispredicted
			// switch cost more than the draw itself.
			p := r.Float()
			ub := bit(p >= 0.76)
			u |= ub << b
			v |= (bit(p >= 0.57) ^ ub ^ bit(p >= 0.95)) << b
		}
		pairs = append(pairs, u, v)
		degs[u]++
	}
	g := sized(n, degs)
	for i := 0; i < len(pairs); i += 2 {
		u := pairs[i]
		g.Neigh[degs[u]] = pairs[i+1]
		degs[u]++
	}
	return g.compact()
}

// bit is 1 for true and 0 for false.
func bit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Road generates a grid road network: side×side intersections with
// 4-neighbour connectivity plus sparse random "highway" shortcuts. High
// locality, bounded degree, enormous diameter — like the USA road graph.
func Road(side int64, seed uint64) *CSR {
	n := side * side
	r := NewRNG(seed)
	g := &CSR{N: n, Offsets: make([]int64, n+1)}
	id := func(x, y int64) int64 { return y*side + x }
	// Rows are filled in node order (u = id(x, y) counts up), so each
	// row's end offset is the fill length after it.
	for y := int64(0); y < side; y++ {
		for x := int64(0); x < side; x++ {
			if x+1 < side {
				g.Neigh = append(g.Neigh, id(x+1, y))
			}
			if x > 0 {
				g.Neigh = append(g.Neigh, id(x-1, y))
			}
			if y+1 < side {
				g.Neigh = append(g.Neigh, id(x, y+1))
			}
			if y > 0 {
				g.Neigh = append(g.Neigh, id(x, y-1))
			}
			// ~1% highway ramps to a distant intersection.
			if r.Intn(100) == 0 {
				g.Neigh = append(g.Neigh, r.Intn(n))
			}
			g.Offsets[id(x, y)+1] = int64(len(g.Neigh))
		}
	}
	return g.compact()
}

// Web generates a power-law web crawl: out-degrees follow a Zipf-like
// distribution; most links stay within a node's "host" cluster and the
// rest point at globally popular pages (low IDs).
func Web(n int64, seed uint64) *CSR {
	r := NewRNG(seed)
	const hostSize = 64
	g := &CSR{N: n, Offsets: make([]int64, n+1)}
	for u := int64(0); u < n; u++ {
		// Zipf-ish out-degree in [1, 64].
		deg := int64(1) + int64(float64(63)/(1.0+15.0*r.Float()))
		host := u / hostSize * hostSize
		for i := int64(0); i < deg; i++ {
			if r.Float() < 0.7 {
				g.Neigh = append(g.Neigh, min(host+r.Intn(hostSize), n-1))
			} else {
				// Popular pages: squared skew towards low IDs.
				f := r.Float()
				g.Neigh = append(g.Neigh, int64(f*f*float64(n)))
			}
		}
		g.Offsets[u+1] = int64(len(g.Neigh))
	}
	return g.compact()
}

// Twitter generates a social-network graph: uniform-ish out-degrees but
// heavy-tailed in-degrees (targets drawn with squared-skew towards a
// small celebrity set), like the twitter follower graph.
func Twitter(n, deg int64, seed uint64) *CSR {
	r := NewRNG(seed)
	g := &CSR{N: n, Offsets: make([]int64, n+1)}
	for u := int64(0); u < n; u++ {
		d := deg/2 + r.Intn(deg)
		for i := int64(0); i < d; i++ {
			if r.Float() < 0.5 {
				// Celebrity follow: strong skew to low IDs.
				f := r.Float()
				g.Neigh = append(g.Neigh, int64(f*f*f*float64(n)))
			} else {
				g.Neigh = append(g.Neigh, r.Intn(n))
			}
		}
		g.Offsets[u+1] = int64(len(g.Neigh))
	}
	return g.compact()
}

// Undirected returns the symmetric closure of g (u→v and v→u), used by
// the undirected kernels (bfs, cc, bc, tc). g's rows must be sorted and
// distinct, as every generator leaves them. Row u of the closure is the
// union of u's out-row and in-row; the in-rows come from counting-sorting
// g's edges by target, and since sources are visited in ascending order
// each in-row comes out sorted, so a linear merge replaces a sort. The
// merge runs twice, to size each row and then to fill it, so Neigh is
// allocated at its exact length.
func Undirected(g *CSR) *CSR {
	deg := make([]int64, g.N)
	for _, v := range g.Neigh {
		deg[v]++
	}
	in := sized(g.N, deg)
	for u := int64(0); u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			in.Neigh[deg[v]] = u
			deg[v]++
		}
	}
	s := &CSR{N: g.N, Offsets: make([]int64, g.N+1)}
	for u := int64(0); u < g.N; u++ {
		s.Offsets[u+1] = s.Offsets[u] + mergeRow(nil, u, g.Neighbors(u), in.Neighbors(u))
	}
	s.Neigh = make([]int64, s.Offsets[g.N])
	for u := int64(0); u < g.N; u++ {
		mergeRow(s.Neigh[s.Offsets[u]:s.Offsets[u+1]], u, g.Neighbors(u), in.Neighbors(u))
	}
	return s
}

// mergeRow merges the sorted rows a and b into dst without duplicates or
// u itself, and returns how many entries the merge holds. A nil dst only
// counts them.
func mergeRow(dst []int64, u int64, a, b []int64) int64 {
	n := int64(0)
	for len(a) > 0 || len(b) > 0 {
		var v int64
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			v, a = a[0], a[1:]
		case len(a) == 0 || b[0] < a[0]:
			v, b = b[0], b[1:]
		default: // u→v and v→u are both in g
			v, a, b = a[0], a[1:], b[1:]
		}
		if v != u {
			if dst != nil {
				dst[n] = v
			}
			n++
		}
	}
	return n
}

// EdgeWeight returns the deterministic weight of edge index e in [1, 64],
// shared by the sssp builder and its Go reference implementation.
func EdgeWeight(e int64) int64 {
	x := uint64(e) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	return int64(x%64) + 1
}
