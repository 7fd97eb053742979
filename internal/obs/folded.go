package obs

import (
	"fmt"
	"strings"

	"ghostthread/internal/isa"
)

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
