// Package core implements the paper's primary contribution: construction
// of ghost threads and, in particular, the novel serialize-based
// inter-thread synchronization mechanism (paper §4.3) plus the
// target-load selection heuristic (paper §4.1).
//
// A ghost thread is a p-slice of the main thread's hot loop that replaces
// the target load with a prefetch, extended with a synchronization
// segment. The main thread publishes its loop-iteration count to a shared
// counter word; the ghost thread keeps its own count and, every SyncFreq
// iterations, compares the two:
//
//   - ghost behind or level with main  → clear the serialize flag and
//     skip ahead (the kernel-specific skip callback);
//   - ghost ≥ TooFar ahead             → set the serialize flag: every
//     subsequent iteration executes a serialize instruction, throttling
//     the ghost at minimal resource cost to the main thread;
//   - ghost within Close of main       → clear the serialize flag and
//     run at full speed again.
//
// This is exactly the state machine of the paper's figure 4(d).
package core

import (
	"fmt"

	"ghostthread/internal/isa"
)

// SyncParams are the synchronization hyper-parameters the paper tunes by
// profiling (§4.3.2). Distances are measured in target-loop iterations.
type SyncParams struct {
	SyncFreq int64 // check the main counter every SyncFreq iterations (power of two)
	TooFar   int64 // set the serialize flag at this lead
	Close    int64 // clear the flag again once the lead shrinks to this
	SkipStep int64 // iterations to skip when behind the main thread

	// MaxBackoff bounds how many serialize instructions the ghost
	// executes back-to-back while the flag is set before advancing an
	// iteration anyway. Repeated serializes are what actually hold a
	// ghost against a very slow main thread; the bound keeps the thread
	// live (and keeps functional interpretation of ghost programs
	// terminating).
	MaxBackoff int64

	// Trace makes the ghost publish its local counter to the ghost
	// counter word every iteration so harnesses can sample the
	// inter-thread distance (figure 10). It costs one store per
	// iteration, so it is off for performance runs.
	Trace bool

	// TooFarAddr/CloseAddr, when both non-zero, select the dynamic-sync
	// segment: instead of baking TooFar and Close into the ghost as AddI
	// immediates, the segment loads them from these governor-owned memory
	// words at every check, so an online governor (internal/gov) can
	// retune the sync window mid-run by plain stores. The words must be
	// initialised to the static TooFar/Close values before the run; the
	// loads carry isa.FlagGovParam so the ghost-lead tap ignores them.
	// Both zero (the default) keeps the classic static segment and an
	// unchanged register layout.
	TooFarAddr int64
	CloseAddr  int64
}

// Dynamic reports whether the parameters select the dynamic-sync segment.
func (p SyncParams) Dynamic() bool { return p.TooFarAddr != 0 && p.CloseAddr != 0 }

// DefaultSyncParams returns the tuned defaults used by the evaluation.
// Like the paper's, they were tuned on the evaluation machine (here: the
// simulator's default configuration) and work across the benchmark suite.
func DefaultSyncParams() SyncParams {
	return SyncParams{SyncFreq: 16, TooFar: 96, Close: 48, SkipStep: 32, MaxBackoff: 64}
}

// Validate checks internal consistency.
func (p SyncParams) Validate() error {
	if p.SyncFreq <= 0 || p.SyncFreq&(p.SyncFreq-1) != 0 {
		return fmt.Errorf("core: SyncFreq %d must be a positive power of two", p.SyncFreq)
	}
	if p.TooFar <= 0 {
		// A non-positive lead threshold sets the serialize flag from
		// iteration 0 on: the ghost throttles forever and never prefetches.
		return fmt.Errorf("core: TooFar %d must be positive", p.TooFar)
	}
	if p.Close < 0 {
		// The flag clears once the lead shrinks to Close; a negative value
		// can never be reached (the skip path resets the lead to >= 0), so
		// a flagged ghost would only ever leave the throttle loop through
		// its backoff budget, never by re-arming.
		return fmt.Errorf("core: Close %d must be non-negative", p.Close)
	}
	if p.Close >= p.TooFar {
		return fmt.Errorf("core: Close (%d) must be below TooFar (%d)", p.Close, p.TooFar)
	}
	if p.SkipStep <= 0 {
		return fmt.Errorf("core: SkipStep %d must be positive", p.SkipStep)
	}
	if p.MaxBackoff <= 0 {
		return fmt.Errorf("core: MaxBackoff %d must be positive", p.MaxBackoff)
	}
	if (p.TooFarAddr != 0) != (p.CloseAddr != 0) {
		return fmt.Errorf("core: dynamic sync needs both threshold words (TooFarAddr %d, CloseAddr %d)",
			p.TooFarAddr, p.CloseAddr)
	}
	if p.TooFarAddr < 0 || p.CloseAddr < 0 {
		return fmt.Errorf("core: negative sync threshold word address (TooFarAddr %d, CloseAddr %d)",
			p.TooFarAddr, p.CloseAddr)
	}
	return nil
}

// Counters is the pair of shared memory words synchronization uses: the
// main thread's published iteration count and the ghost thread's count
// (the latter is stored only so harnesses can sample the inter-thread
// distance, figure 10).
type Counters struct {
	MainAddr  int64
	GhostAddr int64
}

// SyncState holds the registers the synchronization segment needs inside
// a ghost thread's loop. Allocate it once per ghost program with NewSync.
type SyncState struct {
	Params SyncParams

	Local   isa.Reg // ghost-local iteration counter
	Flag    isa.Reg // serialize flag
	zero    isa.Reg
	tmp     isa.Reg
	mainR   isa.Reg
	backoff isa.Reg
	mainA   isa.Reg // register holding Counters.MainAddr
	traceA  isa.Reg // register holding Counters.GhostAddr, when Params.Trace

	// Dynamic-sync registers, allocated only when Params.Dynamic():
	// address registers for the two threshold words and a scratch
	// register holding the most recently loaded threshold value.
	tooFarA isa.Reg
	closeA  isa.Reg
	thr     isa.Reg
}

// SyncRegs is the most registers NewSync allocates for a static sync
// segment (one fewer without Params.Trace); DynamicSyncRegs for a
// dynamic one. Slicers reserve this much headroom below isa.NumRegs.
const (
	SyncRegs        = 8
	DynamicSyncRegs = SyncRegs + 3
)

// NewSync allocates and initialises the synchronization registers in the
// ghost program under construction.
func NewSync(b *isa.Builder, params SyncParams, ctr Counters) *SyncState {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	st := &SyncState{Params: params}
	st.Local = b.Imm(0)
	st.Flag = b.Imm(0)
	st.zero = b.Imm(0)
	st.tmp = b.Reg()
	st.mainR = b.Reg()
	st.backoff = b.Reg()
	st.mainA = b.Imm(ctr.MainAddr)
	if params.Trace {
		st.traceA = b.Imm(ctr.GhostAddr)
	}
	if params.Dynamic() {
		st.tooFarA = b.Imm(params.TooFarAddr)
		st.closeA = b.Imm(params.CloseAddr)
		st.thr = b.Reg()
	}
	return st
}

// EmitUpdate emits the main-thread side of the mechanism: publish the
// iteration count (figure 4(c) line 9). one must hold the constant 1.
// The returned instruction index is the counter update.
func EmitUpdate(b *isa.Builder, counterAddrReg, one isa.Reg, dst isa.Reg) int {
	start := b.Len()
	idx := b.AtomicAdd(dst, counterAddrReg, 0, one)
	b.FlagRange(start, b.Len(), isa.FlagSync)
	return idx
}

// emitCloseBound emits tmp = main_counter + CLOSE: the static immediate,
// or (dynamic sync) a flagged load of the governor-owned Close word.
func (st *SyncState) emitCloseBound(b *isa.Builder) {
	if !st.Params.Dynamic() {
		b.AddI(st.tmp, st.mainR, st.Params.Close)
		return
	}
	idx := b.Load(st.thr, st.closeA, 0)
	b.FlagRange(idx, idx+1, isa.FlagGovParam)
	b.Add(st.tmp, st.mainR, st.thr)
}

// emitTooFarBound emits tmp = main_counter + TOO_FAR (see emitCloseBound).
func (st *SyncState) emitTooFarBound(b *isa.Builder) {
	if !st.Params.Dynamic() {
		b.AddI(st.tmp, st.mainR, st.Params.TooFar)
		return
	}
	idx := b.Load(st.thr, st.tooFarA, 0)
	b.FlagRange(idx, idx+1, isa.FlagGovParam)
	b.Add(st.tmp, st.mainR, st.thr)
}

// EmitSync emits one iteration's synchronization segment into the ghost
// loop body (figure 4(d) lines 6-18). skip, when non-nil, must emit code
// that advances the ghost's induction state by Params.SkipStep iterations
// (it should also advance st.Local accordingly — AdvanceLocal does that).
func EmitSync(b *isa.Builder, st *SyncState, skip func()) {
	start := b.Len()
	p := st.Params

	// local_counter++ (and the distance-sampling trace store, when on).
	b.AddI(st.Local, st.Local, 1)
	if p.Trace {
		b.Store(st.traceA, 0, st.Local)
	}

	// if (serialize_flag) do_serialize() — repeatedly, until the lead
	// has shrunk below Close or the backoff budget runs out. Each
	// serialize drains the pipeline and stops fetch, so during this loop
	// the ghost consumes almost no core resources.
	noSer := b.NewLabel()
	caughtUp := b.NewLabel()
	b.BEQ(st.Flag, st.zero, noSer)
	b.Const(st.backoff, p.MaxBackoff)
	throttle := b.HereLabel()
	b.Serialize()
	b.Load(st.mainR, st.mainA, 0)
	st.emitCloseBound(b)
	b.BLT(st.Local, st.tmp, caughtUp)
	b.AddI(st.backoff, st.backoff, -1)
	b.BGT(st.backoff, st.zero, throttle)
	b.Jmp(noSer) // budget exhausted: advance one iteration, still flagged
	b.Bind(caughtUp)
	b.Const(st.Flag, 0)
	b.Bind(noSer)

	// if (local_counter % SYNC_FREQ != 0) goto end;
	end := b.NewLabel()
	b.AndI(st.tmp, st.Local, p.SyncFreq-1)
	b.BNE(st.tmp, st.zero, end)

	// int main_counter = atomic_counter;
	b.Load(st.mainR, st.mainA, 0)

	// if (local_counter <= main_counter) { flag = false; SKIP_ITERATIONS; }
	notBehind := b.NewLabel()
	b.BGT(st.Local, st.mainR, notBehind)
	b.Const(st.Flag, 0)
	if skip != nil {
		skipStart := b.Len()
		skip()
		b.FlagRange(skipStart, b.Len(), isa.FlagSyncSkip)
	}
	b.Jmp(end)

	// else if (local_counter >= main_counter + TOO_FAR) flag = true;
	b.Bind(notBehind)
	notTooFar := b.NewLabel()
	st.emitTooFarBound(b)
	b.BLT(st.Local, st.tmp, notTooFar)
	b.Const(st.Flag, 1)
	b.Jmp(end)

	// else if (local_counter <= main_counter + CLOSE) flag = false;
	b.Bind(notTooFar)
	st.emitCloseBound(b)
	b.BGT(st.Local, st.tmp, end)
	b.Const(st.Flag, 0)

	b.Bind(end)
	b.FlagRange(start, b.Len(), isa.FlagSync)
}

// AdvanceLocal emits st.Local += n (used inside skip callbacks so the
// ghost's published count stays consistent with its induction state).
func AdvanceLocal(b *isa.Builder, st *SyncState, n int64) {
	start := b.Len()
	b.AddI(st.Local, st.Local, n)
	b.FlagRange(start, b.Len(), isa.FlagSync)
}
