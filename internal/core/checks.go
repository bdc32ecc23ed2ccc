package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
)

// CheckCompleteness verifies the completeness property of Section 2.2 on one
// instance: the scheme's prover must produce a labeling accepted by every
// node. It returns the certified labeling on success.
func CheckCompleteness(s Scheme, inst Instance) ([]string, error) {
	labels, err := s.Prover.Certify(inst)
	if err != nil {
		return nil, fmt.Errorf("prover failed on %v: %w", inst.G, err)
	}
	l, err := NewLabeled(inst, labels)
	if err != nil {
		return nil, fmt.Errorf("prover produced malformed labeling: %w", err)
	}
	outs, err := Run(s.Decoder, l)
	if err != nil {
		return nil, err
	}
	for v, ok := range outs {
		if !ok {
			return nil, fmt.Errorf("completeness violated: node %d rejects prover's certificate on %v", v, inst.G)
		}
	}
	return labels, nil
}

// StrongSoundnessViolation describes a labeled instance on which the
// accepting nodes induce a subgraph outside G(L) (Section 2.3 / 2.5).
type StrongSoundnessViolation struct {
	Labeled   Labeled
	Accepting []int
}

// Error implements error.
func (v *StrongSoundnessViolation) Error() string {
	return fmt.Sprintf("strong soundness violated on %v: accepting set %v induces a subgraph outside the language",
		v.Labeled.G, v.Accepting)
}

// CheckStrongSoundness verifies strong (promise) soundness of the decoder on
// one labeled instance: the subgraph induced by accepting nodes must lie in
// G(L). It returns a *StrongSoundnessViolation error when violated.
func CheckStrongSoundness(d Decoder, lang Language, l Labeled) error {
	acc, err := AcceptingSet(d, l)
	if err != nil {
		return err
	}
	sub, _ := l.G.InducedSubgraph(acc)
	if !lang.Contains(sub) {
		return &StrongSoundnessViolation{Labeled: l, Accepting: acc}
	}
	return nil
}

// ExhaustiveStrongSoundness checks strong soundness of d against every
// labeling of inst over the given label alphabet. It returns the first
// violation found, or nil. The search space is |alphabet|^n; callers keep n
// small. Views are extracted once per node via templates and decoder
// verdicts are memoized per neighborhood labeling, which the equivalence
// tests pin to the naive per-labeling check.
func ExhaustiveStrongSoundness(d Decoder, lang Language, inst Instance, alphabet []string) error {
	return exhaustiveSequential(nil, obs.Scope{}, d, lang, inst, alphabet)
}

// exhaustiveSequential is the one sequential labeling loop: the
// ExhaustiveStrongSoundness oracle, and the path
// ExhaustiveStrongSoundnessParallelCtx falls back to when the search
// degenerates to one worker or the labeling space outgrows 64-bit ranks.
// The sweep tallies are harvested into sc, and every labeling is a
// cancellation checkpoint for ctx (nil never fires). A cancelled search
// never reports a violation.
func exhaustiveSequential(ctx context.Context, sc obs.Scope, d Decoder, lang Language, inst Instance, alphabet []string) error {
	n := inst.G.N()
	sweep, serr := newLabelSweep(d, lang, inst, alphabet)
	if serr != nil {
		return fmt.Errorf("extracting views: %w", serr)
	}
	var aborted atomic.Bool
	release := cancel.Watch(ctx, &aborted)
	defer release()
	var violation error
	graph.EnumLabelings(n, len(alphabet), func(idx []int) bool {
		if aborted.Load() {
			return false
		}
		if err := sweep.check(idx); err != nil {
			violation = err
			return false
		}
		return true
	})
	sweep.harvest(sc)
	if err := cancel.Err(ctx, "exhaustive soundness sweep"); err != nil {
		sc.Counter("core.sweep.cancelled").Inc()
		return err
	}
	return violation
}

// CheckAnonymous tests that the decoder's outputs on the labeled instance do
// not change across the supplied identifier assignments (each paired with an
// NBound). A genuine anonymity proof would quantify over all assignments;
// this is the finite slice used in tests.
func CheckAnonymous(d Decoder, l Labeled, idSets []graph.IDs, nBounds []int) error {
	if len(idSets) != len(nBounds) {
		return fmt.Errorf("idSets and nBounds have different lengths")
	}
	var ref []bool
	for i, ids := range idSets {
		alt := l
		alt.IDs = ids
		alt.NBound = nBounds[i]
		if err := alt.Validate(); err != nil {
			return fmt.Errorf("assignment %d: %w", i, err)
		}
		outs, err := Run(d, alt)
		if err != nil {
			return err
		}
		if ref == nil {
			ref = outs
			continue
		}
		for v := range outs {
			if outs[v] != ref[v] {
				return fmt.Errorf("output at node %d depends on identifier assignment %v", v, ids)
			}
		}
	}
	return nil
}

// CheckOrderInvariant tests that the decoder's outputs agree on every pair
// of supplied identifier assignments that induce the same order
// (Section 2.2). Pairs with different orders are ignored.
func CheckOrderInvariant(d Decoder, l Labeled, idSets []graph.IDs, nBound int) error {
	type result struct {
		ids  graph.IDs
		outs []bool
	}
	var results []result
	for i, ids := range idSets {
		alt := l
		alt.IDs = ids
		alt.NBound = nBound
		if err := alt.Validate(); err != nil {
			return fmt.Errorf("assignment %d: %w", i, err)
		}
		outs, err := Run(d, alt)
		if err != nil {
			return err
		}
		results = append(results, result{ids, outs})
	}
	for i := range results {
		for j := i + 1; j < len(results); j++ {
			if !results[i].ids.SameOrder(results[j].ids) {
				continue
			}
			for v := range results[i].outs {
				if results[i].outs[v] != results[j].outs[v] {
					return fmt.Errorf("order-invariance violated at node %d between %v and %v",
						v, results[i].ids, results[j].ids)
				}
			}
		}
	}
	return nil
}
