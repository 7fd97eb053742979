package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ghostthread/internal/isa"
)

// Histogram is a fixed-bucket histogram: Bounds are ascending inclusive
// upper bounds, with an implicit overflow bucket above the last bound.
// Buckets are fixed at construction so Observe is allocation-free and
// cheap enough for simulator hot paths (a short linear scan).
type Histogram struct {
	name   string
	bounds []int64
	counts []int64 // len(bounds)+1; last = overflow

	count    int64
	sum      int64
	min, max int64

	// sketch tracks the full observation stream at log-linear resolution
	// so tail quantiles (p50/p95/p99) are available without storing raw
	// observations, and survive shard merges exactly (see Sketch).
	sketch Sketch
}

// NewHistogram builds a histogram with the given ascending bucket bounds.
func NewHistogram(name string, bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	return &Histogram{
		name:   name,
		bounds: append([]int64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.sketch.Observe(v)
}

// Quantile returns the q-th quantile estimate of the observation stream
// (from the embedded sketch; 0 when empty).
func (h *Histogram) Quantile(q float64) int64 { return h.sketch.Quantile(q) }

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Bucket is one rendered histogram bucket: count of observations with
// value <= Le (the final bucket has Le == max int64 rendered as "+inf").
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Buckets returns the non-cumulative bucket counts, overflow last.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	for i, c := range h.counts {
		le := int64(1<<63 - 1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		out = append(out, Bucket{Le: le, Count: c})
	}
	return out
}

// Registry holds named counters and histograms and serialises them to
// JSON for external tooling. It is not safe for concurrent use; the
// simulator is single-threaded per run.
type Registry struct {
	counters   map[string]int64
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]int64{}, histograms: map[string]*Histogram{}}
}

// SetCounter sets a counter to an absolute value (simulator statistics
// are accumulated elsewhere and exported once at end of run).
func (r *Registry) SetCounter(name string, v int64) { r.counters[name] = v }

// AddCounter increments a counter.
func (r *Registry) AddCounter(name string, delta int64) { r.counters[name] += delta }

// Histogram registers (or returns the existing) histogram under name.
// Bounds are ignored when the name already exists.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := NewHistogram(name, bounds)
	r.histograms[name] = h
	return h
}

// JSON renders the registry: counters as a name→value object, histograms
// with buckets, count, sum, min, max, mean, and sketch-backed tail
// quantiles. Keys are sorted so output is deterministic and diffable.
func (r *Registry) JSON() ([]byte, error) {
	type histOut struct {
		Name    string   `json:"name"`
		Buckets []Bucket `json:"buckets"`
		Count   int64    `json:"count"`
		Sum     int64    `json:"sum"`
		Min     int64    `json:"min"`
		Max     int64    `json:"max"`
		Mean    float64  `json:"mean"`
		P50     int64    `json:"p50"`
		P95     int64    `json:"p95"`
		P99     int64    `json:"p99"`
	}
	out := struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms []histOut        `json:"histograms"`
	}{Counters: r.counters}
	names := make([]string, 0, len(r.histograms))
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := r.histograms[n]
		mn, mx := h.min, h.max
		if h.count == 0 {
			mn, mx = 0, 0
		}
		out.Histograms = append(out.Histograms, histOut{
			Name: n, Buckets: h.Buckets(), Count: h.count, Sum: h.sum,
			Min: mn, Max: mx, Mean: h.Mean(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// CoreMetrics bundles the histogram hooks a cpu.Core populates when one
// is attached (all fields optional; nil histograms are skipped). Like
// tracing, metrics are observation only and leave statistics
// bit-identical.
type CoreMetrics struct {
	// SerializeStall observes each serialize-throttle span duration
	// (dispatch to commit, in cycles) as it commits.
	SerializeStall *Histogram
	// MSHROccupancy observes the in-use MSHR count at each allocation.
	MSHROccupancy *Histogram
	// GhostLead observes the ghost thread's lead over the main thread
	// (in target-loop iterations) at every synchronization check — each
	// time the ghost's sync segment loads the main thread's published
	// counter. Requires core.SyncParams.Trace so the ghost publishes its
	// own count to GhostCounterAddr.
	GhostLead *Histogram
	// GhostCounterAddr is the memory word holding the ghost's published
	// iteration count (core.Counters.GhostAddr).
	GhostCounterAddr int64
}

// DefaultCoreMetrics builds a registry-backed CoreMetrics with the
// standard bucket layouts: serialize stalls in powers of two around the
// drain+restart cost, MSHR occupancy up to the configured limit, and
// ghost lead spanning [behind … beyond TooFar].
func DefaultCoreMetrics(r *Registry, mshrs int, ghostCounterAddr int64) *CoreMetrics {
	mshrBounds := []int64{1, 2, 4, 8, 12, 16, 20, 24, 28, int64(mshrs)}
	if int64(mshrs) <= 28 {
		mshrBounds = []int64{1, 2, 4, 6, 8, 12, int64(mshrs)}
	}
	return &CoreMetrics{
		SerializeStall:   r.Histogram("serialize_stall_cycles", []int64{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}),
		MSHROccupancy:    r.Histogram("mshr_occupancy", mshrBounds),
		GhostLead:        r.Histogram("ghost_lead_iterations", []int64{-64, -16, 0, 16, 32, 48, 64, 96, 128, 192, 256, 512}),
		GhostCounterAddr: ghostCounterAddr,
	}
}

// FoldedStacks renders a per-PC cycle attribution in the folded-stacks
// format flamegraph tools consume: one line per static instruction with
// a non-zero weight, the stack being program;function/loop nesting;pc.
// weights is indexed by pc (typically the stall-cycle profile from
// cpu.Core.PCProfile); lines are emitted in pc order.
func FoldedStacks(p *isa.Program, weights []int64) string {
	var b strings.Builder
	for pc := 0; pc < len(p.Code) && pc < len(weights); pc++ {
		w := weights[pc]
		if w == 0 {
			continue
		}
		var frames []string
		frames = append(frames, sanitizeFrame(p.Name))
		var loops []string
		for l := p.InnermostLoop(pc); l != nil; {
			label := l.Name
			if l.Func != "" {
				label = l.Func + "." + l.Name
			}
			loops = append(loops, sanitizeFrame(label))
			if l.Parent < 0 {
				break
			}
			l = &p.Loops[l.Parent]
		}
		for i := len(loops) - 1; i >= 0; i-- {
			frames = append(frames, loops[i])
		}
		frames = append(frames, fmt.Sprintf("pc%04d_%s", pc, sanitizeFrame(p.Code[pc].String())))
		fmt.Fprintf(&b, "%s %d\n", strings.Join(frames, ";"), w)
	}
	return b.String()
}

// sanitizeFrame makes a string safe for the folded format (no spaces or
// semicolons, which are the format's separators).
func sanitizeFrame(s string) string {
	s = strings.ReplaceAll(s, ";", ",")
	s = strings.ReplaceAll(s, " ", "")
	return s
}
