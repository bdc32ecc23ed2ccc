package nbhd

import (
	"fmt"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
)

// FromLabeled enumerates a fixed list of labeled instances, e.g. the
// hand-built instance pairs from the paper's hiding proofs (Figs. 3, 5, and
// the P8/P7 and two-ID constructions of Section 7). Shard i of k holds the
// instances at positions i, i+k, i+2k, ...
func FromLabeled(insts ...core.Labeled) ShardedEnumerator {
	return shardFunc(func(i, k int) Enumerator {
		part := subList(insts, i, k)
		return func(yield func(core.Labeled) bool) error {
			for _, l := range part {
				if err := l.Validate(); err != nil {
					return fmt.Errorf("instance %v: %w", l.G, err)
				}
				if !yield(l) {
					return nil
				}
			}
			return nil
		}
	})
}

// ProverLabeled labels each instance with the scheme prover's certificate.
// Instances the prover rejects produce an error (they are outside the
// promise class and should not be enumerated). Shards split the instance
// list by index residue, so each shard runs the prover only on its own
// instances and certification cost parallelizes along with view
// extraction.
func ProverLabeled(s core.Scheme, insts ...core.Instance) ShardedEnumerator {
	return shardFunc(func(i, k int) Enumerator {
		part := subList(insts, i, k)
		return func(yield func(core.Labeled) bool) error {
			for _, inst := range part {
				labels, err := s.Prover.Certify(inst)
				if err != nil {
					return fmt.Errorf("prover on %v: %w", inst.G, err)
				}
				l, err := core.NewLabeled(inst, labels)
				if err != nil {
					return err
				}
				if !yield(l) {
					return nil
				}
			}
			return nil
		}
	})
}

// AllLabelings produces every labeling of every instance over the given
// alphabet (|alphabet|^n labelings per instance). This is the Lemma 3.1
// search restricted to a family and an alphabet; callers keep instances
// small. Shards split the labeling space of every instance by labeling
// prefix (graph.EnumLabelingsShard): all shards walk the instance list in
// order, each enumerating only its own slice of the labelings. The yielded
// Labeled's label slice is reused across labelings of one instance and is
// valid only during the yield; copy it to retain (the builders copy label
// strings into views immediately).
func AllLabelings(alphabet []string, insts ...core.Instance) ShardedEnumerator {
	return shardFunc(func(i, k int) Enumerator { return allLabelingsShard(alphabet, insts, i, k) })
}

// allLabelingsShard enumerates, per instance, the labelings assigned to the
// given shard of the labeling-prefix partition (graph.EnumLabelingsShard).
// shard 0 of 1 is the full sequential enumeration. One label slice is
// reused across all labelings of one instance; see AllLabelings.
func allLabelingsShard(alphabet []string, insts []core.Instance, shard, shards int) Enumerator {
	return func(yield func(core.Labeled) bool) error {
		for _, inst := range insts {
			stopped := false
			labels := make([]string, inst.G.N())
			graph.EnumLabelingsShard(inst.G.N(), len(alphabet), shard, shards, func(idx []int) bool {
				for v, a := range idx {
					labels[v] = alphabet[a]
				}
				if !yield(core.MustNewLabeled(inst, labels)) {
					stopped = true
					return false
				}
				return true
			})
			if stopped {
				return nil
			}
		}
		return nil
	}
}
