package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"testing"

	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

var update = flag.Bool("update", false, "rewrite testdata/program_digests_golden.json from the current builders")

const programDigestsGolden = "testdata/program_digests_golden.json"

// buildDigest is one golden entry: the programs and the initial memory
// image of one workload build.
type buildDigest struct {
	Build    string `json:"build"`
	Programs string `json:"programs"`
	Mem      string `json:"mem"`
}

// digestWriter hashes int64 words little-endian, and strings with their
// length first so adjacent fields cannot run together.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (w *digestWriter) word(v int64) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(v))
	w.h.Write(w.buf[:])
}

func (w *digestWriter) str(s string) {
	w.word(int64(len(s)))
	w.h.Write([]byte(s))
}

func (w *digestWriter) sum() string { return hex.EncodeToString(w.h.Sum(nil)) }

// program hashes p's name, every field of every instruction and every
// loop annotation.
func (w *digestWriter) program(p *isa.Program) {
	w.str(p.Name)
	w.word(int64(len(p.Code)))
	for _, in := range p.Code {
		for _, v := range []int64{int64(in.Op), int64(in.Dst), int64(in.Src1), int64(in.Src2),
			in.Imm, int64(in.Target), int64(in.Flags), int64(in.Loop)} {
			w.word(v)
		}
	}
	w.word(int64(len(p.Loops)))
	for _, l := range p.Loops {
		w.word(int64(l.ID))
		w.str(l.Name)
		w.str(l.Func)
		for _, v := range []int{l.Parent, l.Head, l.End, l.Backedge} {
			w.word(int64(v))
		}
	}
}

// programSet hashes a main program and its helpers.
func (w *digestWriter) programSet(main *isa.Program, helpers []*isa.Program) {
	w.program(main)
	w.word(int64(len(helpers)))
	for _, hp := range helpers {
		w.program(hp)
	}
}

// memDigest hashes the full memory image.
func memDigest(m *mem.Memory) string {
	w := newDigestWriter()
	for _, v := range m.Slice(0, m.Size()) {
		w.word(v)
	}
	return w.sum()
}

// instanceDigest hashes every variant of a registry build.
func instanceDigest(build string, in *Instance) buildDigest {
	w := newDigestWriter()
	for _, nv := range in.Variants() {
		w.str(nv.Name)
		w.programSet(nv.Variant.Main, nv.Variant.Helpers)
	}
	return buildDigest{Build: build, Programs: w.sum(), Mem: memDigest(in.Mem)}
}

// multiDigest hashes every core's programs of a multi-core build.
func multiDigest(build string, in *MultiInstance) buildDigest {
	w := newDigestWriter()
	for _, cp := range in.Per {
		w.programSet(cp.Main, cp.Helpers)
	}
	return buildDigest{Build: build, Programs: w.sum(), Mem: memDigest(in.Mem)}
}

// TestWorkloadProgramDigests pins the IR programs and initial memory
// image of every build the experiments run: every variant of the 34
// evaluated workloads, and every figure-9 multi-core build (bfs, cc and
// pr on the five graphs at 1, 2 and 4 cores under each technique), each
// under DefaultOptions and ProfileOptions. A builder refactor that claims
// to emit the same programs must leave every digest unchanged; one that
// moves a digest must explain it. Re-bless after a reviewed change with
//
//	go test ./internal/workloads -run TestWorkloadProgramDigests -update
func TestWorkloadProgramDigests(t *testing.T) {
	var got []buildDigest
	for _, o := range []struct {
		name string
		opts Options
	}{{"eval", DefaultOptions()}, {"profile", ProfileOptions()}} {
		for _, wn := range AllWorkloadNames() {
			build, err := Lookup(wn)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, instanceDigest(wn+"/"+o.name, build(o.opts)))
		}
		for _, kernel := range MultiKernels {
			for _, gn := range GraphNames {
				for _, cores := range []int{1, 2, 4} {
					for _, tech := range []MultiTech{MultiBaseline, MultiSWPF, MultiSMT, MultiGhost} {
						in, err := NewMulti(kernel, gn, cores, tech, o.opts)
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, multiDigest(in.Name+"/"+o.name, in))
					}
				}
			}
		}
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')

	if *update {
		if err := os.WriteFile(programDigestsGolden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantRaw, err := os.ReadFile(programDigestsGolden)
	if err != nil {
		t.Fatalf("%v (bless with -update)", err)
	}
	if bytes.Equal(raw, wantRaw) {
		return
	}
	var want []buildDigest
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		t.Fatal(err)
	}
	byBuild := map[string]buildDigest{}
	for _, d := range want {
		byBuild[d.Build] = d
	}
	for _, d := range got {
		w, ok := byBuild[d.Build]
		switch {
		case !ok:
			t.Errorf("%s: not in %s", d.Build, programDigestsGolden)
		case d != w:
			t.Errorf("%s: %s", d.Build, digestDiff(w, d))
		}
		delete(byBuild, d.Build)
	}
	for b := range byBuild {
		t.Errorf("%s: in %s but no longer built", b, programDigestsGolden)
	}
	if len(want) != len(got) {
		t.Errorf("%d builds, golden has %d", len(got), len(want))
	}
}

// digestDiff names the parts of a build whose digest moved.
func digestDiff(want, got buildDigest) string {
	var s string
	if got.Programs != want.Programs {
		s += fmt.Sprintf("programs %s, want %s; ", got.Programs[:12], want.Programs[:12])
	}
	if got.Mem != want.Mem {
		s += fmt.Sprintf("memory image %s, want %s; ", got.Mem[:12], want.Mem[:12])
	}
	return s
}
