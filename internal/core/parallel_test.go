package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// centerNonzeroDecoder accepts iff the center's label is not "0". Against
// TwoCol on an odd cycle it is unsound: the lexicographically first violating
// labeling is all-"1" (every node accepts, the accepting set induces the odd
// cycle itself), which pins down the parallel search's first-violation
// determinism.
func centerNonzeroDecoder() Decoder {
	return NewDecoder(1, true, func(mu *view.View) bool {
		return mu.Labels[view.Center] != "0"
	})
}

func alwaysAcceptDecoder() Decoder {
	return NewDecoder(1, true, func(*view.View) bool { return true })
}

// violationLabels extracts the violating labeling, or nil for a clean pass.
func violationLabels(t *testing.T, err error) []string {
	t.Helper()
	if err == nil {
		return nil
	}
	var v *StrongSoundnessViolation
	if !errors.As(err, &v) {
		t.Fatalf("unexpected error type: %v", err)
	}
	return v.Labeled.Labels
}

var parallelGrid = []struct{ shards, workers int }{
	{0, 0}, {1, 1}, {3, 2}, {16, 2}, {7, 7}, {16, 16},
}

func TestExhaustiveParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		d        Decoder
		inst     Instance
		alphabet []string
	}{
		{"reveal-sound/P4", revealDecoder(), NewInstance(graph.Path(4)), []string{"0", "1", "x"}},
		{"reveal-sound/C4", revealDecoder(), NewInstance(graph.MustCycle(4)), []string{"0", "1"}},
		{"center-nonzero/C5", centerNonzeroDecoder(), NewInstance(graph.MustCycle(5)), []string{"0", "1", "2"}},
		{"always-accept/C3", alwaysAcceptDecoder(), NewInstance(graph.MustCycle(3)), []string{"a", "b"}},
	}
	lang := TwoCol()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seqErr := ExhaustiveStrongSoundness(c.d, lang, c.inst, c.alphabet)
			seqLabels := violationLabels(t, seqErr)
			for _, p := range parallelGrid {
				parErr := ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, c.d, lang, c.inst, c.alphabet, p.shards, p.workers)
				if (seqErr == nil) != (parErr == nil) {
					t.Fatalf("shards=%d workers=%d: sequential err %v, parallel err %v", p.shards, p.workers, seqErr, parErr)
				}
				if seqErr == nil {
					continue
				}
				parLabels := violationLabels(t, parErr)
				if len(parLabels) != len(seqLabels) {
					t.Fatalf("shards=%d workers=%d: violation labels %v != sequential %v", p.shards, p.workers, parLabels, seqLabels)
				}
				for i := range seqLabels {
					if parLabels[i] != seqLabels[i] {
						t.Fatalf("shards=%d workers=%d: violation labels %v != sequential %v", p.shards, p.workers, parLabels, seqLabels)
					}
				}
			}
		})
	}
}

// TestExhaustiveParallelFirstViolation pins the early-stop determinism of the
// parallel search: whatever the shard/worker schedule, the reported violation
// is the lexicographically first one — all-"1" on C5, rank 121 of 3^5.
func TestExhaustiveParallelFirstViolation(t *testing.T) {
	inst := NewInstance(graph.MustCycle(5))
	alphabet := []string{"0", "1", "2"}
	want := []string{"1", "1", "1", "1", "1"}
	for rep := 0; rep < 5; rep++ {
		for _, p := range parallelGrid {
			err := ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, centerNonzeroDecoder(), TwoCol(), inst, alphabet, p.shards, p.workers)
			got := violationLabels(t, err)
			if len(got) != len(want) {
				t.Fatalf("rep=%d shards=%d workers=%d: got violation %v, want %v", rep, p.shards, p.workers, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rep=%d shards=%d workers=%d: got violation %v, want %v", rep, p.shards, p.workers, got, want)
				}
			}
		}
	}
}

// TestFuzzParallelMatchesSequential pins FuzzStrongSoundness at several
// worker counts to its one-worker run, which claims every trial in order on
// the calling goroutine, and that run to the naive trial-by-trial replay.
func TestFuzzParallelMatchesSequential(t *testing.T) {
	alphabet := []string{"0", "1", "x"}
	gen := func(_ int, rng *rand.Rand) string { return alphabet[rng.Intn(len(alphabet))] }
	cases := []struct {
		name      string
		d         Decoder
		inst      Instance
		violation bool
	}{
		{"reveal-sound/petersen", revealDecoder(), NewInstance(graph.Petersen()), false},
		{"center-nonzero/C5", centerNonzeroDecoder(), NewInstance(graph.MustCycle(5)), true},
	}
	errString := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := referenceFuzz(c.d, TwoCol(), c.inst, 200, rand.New(rand.NewSource(42)), gen)
			seq := FuzzStrongSoundness(obs.Scope{}, c.d, TwoCol(), c.inst, 200, rand.New(rand.NewSource(42)), gen, 1)
			if (seq != nil) != c.violation || errString(seq) != errString(ref) {
				t.Fatalf("workers=1: %v, naive replay: %v (want violation: %v)", seq, ref, c.violation)
			}
			for _, workers := range []int{0, 2, 7} {
				par := FuzzStrongSoundness(obs.Scope{}, c.d, TwoCol(), c.inst, 200, rand.New(rand.NewSource(42)), gen, workers)
				if errString(par) != errString(seq) {
					t.Fatalf("workers=%d: %v != workers=1: %v", workers, par, seq)
				}
			}
		})
	}
}

// TestCheckAnonymousEdgeCases drives CheckAnonymous through its boundary
// inputs: no assignments at all, a single-node graph, and bounds too small
// for the identifiers.
// TestMinViolationKeepsLeastRank drives the recorder sequentially, so the
// already-beaten paths run on every pass instead of only when workers race.
func TestMinViolationKeepsLeastRank(t *testing.T) {
	m := newMinViolation()
	if r, err := m.min(); err != nil || r != math.MaxUint64 || m.bound() != math.MaxUint64 {
		t.Fatalf("empty recorder: min = %d, %v; bound = %d", r, err, m.bound())
	}
	e5, e9, e5b, e2 := errors.New("5"), errors.New("9"), errors.New("5b"), errors.New("2")
	m.record(5, e5)
	m.record(9, e9)  // larger rank after a smaller one: beaten
	m.record(5, e5b) // equal rank: the first report stays
	if r, err := m.min(); r != 5 || err != e5 || m.bound() != 5 {
		t.Errorf("after 5, 9, 5: min = %d, %v; bound = %d; want 5, 5, 5", r, err, m.bound())
	}
	m.record(2, e2)
	if r, err := m.min(); r != 2 || err != e2 || m.bound() != 2 {
		t.Errorf("after 2: min = %d, %v; bound = %d; want 2, 2, 2", r, err, m.bound())
	}
}

func TestCheckAnonymousEdgeCases(t *testing.T) {
	single := MustNewLabeled(NewAnonymousInstance(graph.New(1)), []string{"0"})
	path := MustNewLabeled(NewAnonymousInstance(graph.Path(3)), []string{"0", "1", "0"})
	cases := []struct {
		name    string
		l       Labeled
		idSets  []graph.IDs
		nBounds []int
		wantErr bool
	}{
		{"empty-id-sets", path, nil, nil, false},
		{"single-assignment", path, []graph.IDs{{1, 2, 3}}, []int{3}, false},
		{"single-node-graph", single, []graph.IDs{{5}, {9}}, []int{10, 10}, false},
		{"length-mismatch", path, []graph.IDs{{1, 2, 3}}, []int{3, 4}, true},
		{"nbound-below-ids", path, []graph.IDs{{1, 2, 3}}, []int{2}, true},
		{"wrong-id-count", path, []graph.IDs{{1, 2}}, []int{3}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := CheckAnonymous(revealDecoder(), c.l, c.idSets, c.nBounds)
			if (err != nil) != c.wantErr {
				t.Errorf("CheckAnonymous = %v, wantErr = %v", err, c.wantErr)
			}
		})
	}
}

// TestCheckOrderInvariantEdgeCases: empty assignment lists pass vacuously;
// pairs with different identifier orders are exempt from the comparison; a
// parity-sensitive decoder is caught on a same-order pair.
func TestCheckOrderInvariantEdgeCases(t *testing.T) {
	l := MustNewLabeled(NewAnonymousInstance(graph.Path(3)), []string{"", "", ""})
	parity := NewDecoder(1, false, func(mu *view.View) bool {
		return mu.IDs[view.Center]%2 == 0
	})
	cases := []struct {
		name    string
		d       Decoder
		idSets  []graph.IDs
		wantErr bool
	}{
		{"empty-id-sets", parity, nil, false},
		{"single-assignment", parity, []graph.IDs{{2, 4, 6}}, false},
		{"different-order-ignored", parity, []graph.IDs{{1, 2, 3}, {3, 2, 1}}, false},
		{"same-order-parity-violation", parity, []graph.IDs{{2, 4, 6}, {1, 3, 5}}, true},
		{"order-invariant-decoder", revealDecoder(), []graph.IDs{{2, 4, 6}, {1, 3, 5}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := CheckOrderInvariant(c.d, l, c.idSets, 30)
			if (err != nil) != c.wantErr {
				t.Errorf("CheckOrderInvariant = %v, wantErr = %v", err, c.wantErr)
			}
		})
	}
}
