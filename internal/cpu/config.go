// Package cpu implements the cycle-level model of one out-of-order core
// with two SMT hardware contexts — the substrate Ghost Threading runs on.
//
// The model follows the structure the paper's argument depends on
// (figure 2): a reorder buffer that is statically partitioned between the
// two SMT threads when both are active, in-order commit (so a long-latency
// load at the head produces a full-window stall), load/store queue and
// MSHR limits (so MLP is bounded by them once prefetching decouples loads
// from the ROB), shared fetch/issue bandwidth, and a `serialize`
// instruction that halts a thread's fetch until its older instructions
// drain (§4.3.1).
//
// Semantics are execute-at-dispatch: each instruction's functional effect
// (register values, memory contents, branch direction) is applied when it
// is dispatched, in program order, while the timing model independently
// tracks when its value would actually be available. This is the standard
// trace-driven simplification; it implies perfect branch prediction except
// for branches explicitly flagged FlagHardBranch, which stall dispatch
// until they resolve plus a redirect penalty.
package cpu

// Config parameterises the core model. The defaults echo a scaled-down
// Alder Lake P-core; DESIGN.md §4 discusses the choices.
type Config struct {
	ROBSize int // total reorder-buffer entries (halved per thread in SMT mode)
	LoadQ   int // total load-queue entries (halved in SMT mode)
	StoreQ  int // total store-queue entries (halved in SMT mode)

	FetchWidth  int // instructions dispatched per cycle, shared
	IssueWidth  int // instructions issued to execution per cycle, shared
	CommitWidth int // instructions committed per cycle, per thread

	MSHRs int // outstanding L1 misses, shared between the SMT threads

	IntLat int64 // simple ALU latency
	MulLat int64 // multiply latency
	DivLat int64 // divide/remainder latency

	// SerializeLat models the drain+restart cost of the serialize
	// instruction once it reaches the ROB head (the instruction is
	// microcoded and far from free even on an empty pipeline).
	SerializeLat int64

	// BranchPenalty is the redirect cost charged after a FlagHardBranch
	// resolves.
	BranchPenalty int64

	// Thread activation/deactivation costs (paper §4.2.2: activating a
	// helper uses a system call that "may take thousands of cycles").
	SpawnCostMain   int64 // cycles the spawning thread is blocked
	SpawnCostHelper int64 // cycles before the helper starts fetching
	JoinCost        int64 // cycles the main thread pays to deactivate/join
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		ROBSize:         192,
		LoadQ:           96,
		StoreQ:          64,
		FetchWidth:      6,
		IssueWidth:      6,
		CommitWidth:     6,
		MSHRs:           32,
		IntLat:          1,
		MulLat:          3,
		DivLat:          12,
		SerializeLat:    30,
		BranchPenalty:   12,
		SpawnCostMain:   6000,
		SpawnCostHelper: 3000,
		JoinCost:        1500,
	}
}
