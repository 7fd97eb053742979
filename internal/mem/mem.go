// Package mem provides the simulated machine's data memory: a flat,
// word-addressed store shared by all hardware threads, a bump allocator
// for laying out workload data, and the DRAM/memory-controller timing
// model with bandwidth accounting and synthetic bandwidth-pressure agents
// (the stand-in for the paper's Intel RDT `membw` tool, §6.3).
package mem

import "fmt"

// WordBytes is the size of one memory word.
const WordBytes = 8

// LineWords is the number of words per cache line (64-byte lines).
const LineWords = 8

// Memory is the functional data store. Addresses are word indices.
// Out-of-range accesses panic: they indicate workload bugs, not
// recoverable conditions.
type Memory struct {
	words []int64
}

// New returns a Memory with capacity for size words.
func New(size int64) *Memory {
	return &Memory{words: make([]int64, size)}
}

// Size returns the capacity in words.
func (m *Memory) Size() int64 { return int64(len(m.words)) }

// LoadWord returns the word at addr.
func (m *Memory) LoadWord(addr int64) int64 {
	if addr < 0 || addr >= int64(len(m.words)) {
		panic(fmt.Sprintf("mem: load out of range: %d (size %d)", addr, len(m.words)))
	}
	return m.words[addr]
}

// StoreWord writes v at addr.
func (m *Memory) StoreWord(addr int64, v int64) {
	if addr < 0 || addr >= int64(len(m.words)) {
		panic(fmt.Sprintf("mem: store out of range: %d (size %d)", addr, len(m.words)))
	}
	m.words[addr] = v
}

// Fill sets words [addr, addr+n) to v.
func (m *Memory) Fill(addr, n, v int64) {
	for i := int64(0); i < n; i++ {
		m.StoreWord(addr+i, v)
	}
}

// CopyIn writes the slice vs starting at addr.
func (m *Memory) CopyIn(addr int64, vs []int64) {
	if addr < 0 || addr+int64(len(vs)) > int64(len(m.words)) {
		panic(fmt.Sprintf("mem: copy out of range: [%d,%d) size %d", addr, addr+int64(len(vs)), len(m.words)))
	}
	copy(m.words[addr:], vs)
}

// Grow appends n zeroed words to the top of the address space and
// returns the base address of the new region. It exists for late
// allocations against an already-built workload image — the adaptive
// governor's sync tuning words are carved out this way after the
// workload builder has finished — so callers never have to thread extra
// layout through every builder. Take any Snapshot after growing:
// Restore requires matching sizes.
func (m *Memory) Grow(n int64) int64 {
	if n <= 0 {
		panic(fmt.Sprintf("mem: grow by non-positive size %d", n))
	}
	base := int64(len(m.words))
	m.words = append(m.words, make([]int64, n)...)
	return base
}

// Snapshot returns a copy of the full memory contents, for restoring
// with Restore. Building a workload's memory image can cost more than
// simulating a variant on it; snapshot/restore lets one built image be
// replayed across many runs.
func (m *Memory) Snapshot() []int64 {
	return append([]int64(nil), m.words...)
}

// Restore overwrites the contents with a snapshot taken from this (or an
// equal-sized) memory.
func (m *Memory) Restore(snap []int64) {
	if len(snap) != len(m.words) {
		panic(fmt.Sprintf("mem: restore size mismatch: snapshot %d words, memory %d", len(snap), len(m.words)))
	}
	copy(m.words, snap)
}

// Slice returns a view of words [addr, addr+n) for test inspection.
func (m *Memory) Slice(addr, n int64) []int64 {
	if addr < 0 || addr+n > int64(len(m.words)) {
		panic(fmt.Sprintf("mem: slice out of range: [%d,%d) size %d", addr, addr+n, len(m.words)))
	}
	return m.words[addr : addr+n]
}

// Heap lays out workload data in a Memory with line-aligned allocations.
// Address 0 is reserved (never allocated) so it can act as a null.
type Heap struct {
	mem  *Memory
	next int64
}

// NewHeap returns an allocator over m starting after the reserved line.
func NewHeap(m *Memory) *Heap {
	return &Heap{mem: m, next: LineWords}
}

// Alloc reserves n words aligned to a cache line and returns the base
// address. It panics when the memory is exhausted (a sizing bug).
func (h *Heap) Alloc(n int64) int64 {
	if n < 0 {
		panic("mem: negative allocation")
	}
	base := h.next
	h.next += (n + LineWords - 1) / LineWords * LineWords
	if h.next > h.mem.Size() {
		panic(fmt.Sprintf("mem: heap exhausted: need %d words, have %d", h.next, h.mem.Size()))
	}
	return base
}

// AllocSlice reserves space for vs, copies it in, and returns the base.
func (h *Heap) AllocSlice(vs []int64) int64 {
	base := h.Alloc(int64(len(vs)))
	h.mem.CopyIn(base, vs)
	return base
}

// Used reports the number of words allocated so far.
func (h *Heap) Used() int64 { return h.next }

// Mem returns the underlying memory.
func (h *Heap) Mem() *Memory { return h.mem }
