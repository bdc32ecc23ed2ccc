//go:build !race

package core

import (
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// rejectAllDecoder rejects every view: the accepting set stays empty, so a
// strong-soundness sweep never constructs a violation and the steady state
// is pure memo traffic.
type rejectAllDecoder struct{}

func (rejectAllDecoder) Rounds() int            { return 1 }
func (rejectAllDecoder) Anonymous() bool        { return true }
func (rejectAllDecoder) Decide(*view.View) bool { return false }

// TestLabelSweepSteadyStateAllocs pins the memoized soundness sweep at zero
// allocations once every (node, neighborhood-labeling) rank and the language
// verdict are memoized. The race detector instruments allocations, so this
// runs only in plain builds.
func TestLabelSweepSteadyStateAllocs(t *testing.T) {
	inst := NewAnonymousInstance(graph.MustCycle(4))
	alphabet := []string{"0", "1"}
	s, err := newLabelSweep(rejectAllDecoder{}, TwoCol(), inst, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		graph.EnumLabelings(inst.G.N(), len(alphabet), func(idx []int) bool {
			if err := s.check(idx); err != nil {
				t.Fatalf("reject-all sweep found a violation: %v", err)
			}
			return true
		})
	}
	sweep() // fill the rank and language memos
	if n := testing.AllocsPerRun(50, sweep); n > 2 {
		t.Errorf("memoized sweep allocates %.1f objects per 2^4-labeling pass, want <= 2", n)
	}
}
