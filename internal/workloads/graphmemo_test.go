package workloads

// graphmemo_test.go — the process-wide undirected-graph memo: one build
// per input however many workloads and goroutines ask, and no builder
// writes to the shared CSR.

import (
	"slices"
	"sync"
	"testing"

	"ghostthread/internal/graph"
)

// forgetGraph drops k from the memo so the next request builds it afresh.
func forgetGraph(k graphKey) {
	graphMu.Lock()
	delete(graphMemo, k)
	graphMu.Unlock()
}

// TestGraphMemoSharesOneBuild builds bfs.kron from several goroutines at
// once, then cc.urand and pr.urand, and checks that each input was
// generated exactly once and that every request returns the same CSR.
func TestGraphMemoSharesOneBuild(t *testing.T) {
	kron := graphKey{name: "kron", scale: ScaleProfile}
	forgetGraph(kron)
	before := graphBuilds.Load()
	build, err := Lookup("bfs.kron")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	got := make([]*graph.CSR, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			build(ProfileOptions())
			got[i] = gapInput("kron", ScaleProfile)
		}()
	}
	wg.Wait()
	if n := graphBuilds.Load() - before; n != 1 {
		t.Errorf("%d concurrent bfs.kron builds generated kron %d times, want 1", workers, n)
	}
	for i, g := range got[1:] {
		if g != got[0] {
			t.Errorf("goroutine %d got a different kron CSR", i+1)
		}
	}

	urand := graphKey{name: "urand", scale: ScaleProfile}
	forgetGraph(urand)
	before = graphBuilds.Load()
	for _, name := range []string{"cc.urand", "pr.urand"} {
		build, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		build(ProfileOptions())
	}
	if n := graphBuilds.Load() - before; n != 1 {
		t.Errorf("cc.urand and pr.urand generated urand %d times, want 1", n)
	}
	if gapInput("urand", ScaleProfile) != gapInput("urand", ScaleProfile) {
		t.Error("two urand requests returned different CSRs")
	}
}

// TestGraphMemoUnmutated builds every GAP workload and multi-core build
// at profile scale, then checks that each memoized input still equals a
// fresh generation of it: no builder may write to a shared CSR.
func TestGraphMemoUnmutated(t *testing.T) {
	for _, name := range GAPWorkloadNames() {
		build, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		build(ProfileOptions())
	}
	for _, kernel := range MultiKernels {
		for _, tech := range []MultiTech{MultiBaseline, MultiSWPF, MultiSMT, MultiGhost} {
			if _, err := NewMulti(kernel, "urand", 2, tech, ProfileOptions()); err != nil {
				t.Fatal(err)
			}
		}
	}
	graphMu.Lock()
	memo := make(map[graphKey]func() *graph.CSR, len(graphMemo))
	for k, get := range graphMemo {
		memo[k] = get
	}
	graphMu.Unlock()
	if len(memo) < len(GraphNames) {
		t.Fatalf("memo holds %d inputs after building every GAP workload, want at least %d", len(memo), len(GraphNames))
	}
	for k, get := range memo {
		fresh, shared := k.build(), get()
		if shared.N != fresh.N || !slices.Equal(shared.Offsets, fresh.Offsets) || !slices.Equal(shared.Neigh, fresh.Neigh) {
			t.Errorf("%+v: the memoized CSR differs from a fresh build: a builder wrote to it", k)
		}
	}
}
