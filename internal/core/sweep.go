package core

import (
	"encoding/binary"
	"fmt"

	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// labelSweep accelerates repeated strong-soundness checks of many labelings
// of one fixed instance: per-node view templates amortize extraction across
// labelings (only the per-view label slice is rebuilt), and per-node dense
// verdict tables indexed by the rank of the node's neighborhood labeling
// amortize decoder calls. A labelSweep is not safe for concurrent use; the
// parallel drivers give each worker its own.
//
// The sweep reproduces the sequential check exactly: same decoder verdicts
// (decoders are pure functions of the view), same induced subgraph, same
// first violation.
type labelSweep struct {
	d        Decoder
	lang     Language
	inst     Instance
	alphabet []string
	tpl      []*view.Template
	// pows[v][i] is |alphabet|^i for ranking node v's neighborhood labeling
	// in check; nil when node v gets no verdict table (see newLabelSweep),
	// and then every check of v calls the decoder.
	pows [][]uint64
	// tab[v] is node v's verdict table: entry r (2 bits: known, accept) is
	// the verdict for neighborhood-labeling rank r. It holds tabWords[v]
	// words and is allocated on v's first lookup, so sweeps that never
	// check a labeling pay nothing for it.
	tab      [][]uint64
	tabWords []int
	// smemo memoizes checkLabels verdicts by the node's concatenated
	// (length-prefixed) host labels, for label streams outside the alphabet.
	smemo  []map[string]bool
	labels []string
	acc    []int
	keyBuf []byte
	// mu is the scratch view refilled per memo-miss decoder call
	// (view.Template.InstantiateInto). Decoders are pure functions of the
	// view (pinned by the decoderpurity analyzer) and the sweep never
	// retains or interns the instance, so one scratch view per sweep is
	// safe.
	mu view.View
	// langMemo memoizes lang.Contains by accepting-set bitmask (instances
	// with at most 64 nodes): the language verdict is a pure function of
	// the induced subgraph, which the accepting set determines.
	langMemo map[uint64]bool
	useMask  bool

	// Plain tallies, private to the owning goroutine (a labelSweep is
	// single-goroutine by contract); the scoped parallel drivers harvest
	// them after their WaitGroup barrier.
	nChecked        int64 // labelings verified
	nDecide         int64 // per-node verdicts requested
	nDecideMemoHits int64 // verdicts served from the rank tables or string memos
	nDecideInner    int64 // verdicts that invoked the decoder
	nLangEvals      int64 // language membership evaluations
	nLangMemoHits   int64 // language verdicts served from the bitmask memo
}

// harvest folds the sweep's tallies into the scope's counters. Call only
// after the owning goroutine has finished sweeping.
func (s *labelSweep) harvest(sc obs.Scope) {
	if s == nil || !sc.Enabled() {
		return
	}
	sc.Counter("core.sweep.labelings.checked").Add(s.nChecked)
	sc.Counter("core.sweep.decide.calls").Add(s.nDecide)
	sc.Counter("core.sweep.decide.memo_hits").Add(s.nDecideMemoHits)
	sc.Counter("core.sweep.decide.inner").Add(s.nDecideInner)
	sc.Counter("core.sweep.lang.evals").Add(s.nLangEvals)
	sc.Counter("core.sweep.lang.memo_hits").Add(s.nLangMemoHits)
}

// maxTableEntries caps one node's verdict table at 16 MiB (four 2-bit
// entries per byte); a node whose neighborhood labelings outnumber it is
// decided without a table.
const maxTableEntries = (16 << 20) * 4

// newLabelSweep extracts one view template per node of inst and sizes the
// nodes' verdict tables. A node gets no table when its hosts cover the
// whole instance (each of its ranks is then a whole labeling, which an
// exhaustive sweep visits once, so a table could never hit) or when its
// |alphabet|^hosts neighborhood labelings exceed maxTableEntries. The
// returned error matches the text of the legacy per-labeling extraction
// error ("node %d: ..."), which only triggers on malformed instances.
func newLabelSweep(d Decoder, lang Language, inst Instance, alphabet []string) (*labelSweep, error) {
	n := inst.G.N()
	s := &labelSweep{
		d: d, lang: lang, inst: inst, alphabet: alphabet,
		tpl:      make([]*view.Template, n),
		pows:     make([][]uint64, n),
		tab:      make([][]uint64, n),
		tabWords: make([]int, n),
		smemo:    make([]map[string]bool, n),
		labels:   make([]string, n),
		acc:      make([]int, 0, n),
		langMemo: make(map[uint64]bool),
		useMask:  n <= 64,
	}
	ids := inst.IDs
	if d.Anonymous() {
		// Anonymous decoders see anonymized views; extracting without
		// identifiers yields the same views without the per-call clone.
		ids = nil
	}
	var ex view.Extractor
	r := d.Rounds()
	a := uint64(len(alphabet))
	for v := 0; v < n; v++ {
		t, err := ex.Template(inst.G, inst.Prt, ids, inst.NBound, v, r)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", v, err)
		}
		s.tpl[v] = t
		s.smemo[v] = make(map[string]bool)
		if t.N() == n {
			continue
		}
		pows := make([]uint64, t.N())
		size := uint64(1)
		for i := range pows {
			pows[i] = size
			if a != 0 && size > maxTableEntries/a {
				pows = nil
				break
			}
			size *= a
		}
		if pows != nil {
			s.pows[v] = pows
			s.tabWords[v] = int((size + 31) / 32)
		}
	}
	return s, nil
}

// check verifies strong soundness for the labeling alphabet[idx[0]],
// alphabet[idx[1]], … — the EnumLabelings representation.
func (s *labelSweep) check(idx []int) error {
	for v, a := range idx {
		s.labels[v] = s.alphabet[a]
	}
	return s.verify(s.labels, func(v int) bool {
		t := s.tpl[v]
		pows := s.pows[v]
		if pows == nil {
			s.nDecideInner++
			return s.d.Decide(t.InstantiateInto(&s.mu, s.labels))
		}
		rank := uint64(0)
		for i, w := range t.Hosts() {
			rank += uint64(idx[w]) * pows[i]
		}
		tab := s.tab[v]
		if tab == nil {
			tab = make([]uint64, s.tabWords[v])
			s.tab[v] = tab
		}
		word, shift := rank/32, rank%32*2
		if e := tab[word] >> shift; e&1 != 0 {
			s.nDecideMemoHits++
			return e&2 != 0
		}
		s.nDecideInner++
		out := s.d.Decide(t.InstantiateInto(&s.mu, s.labels))
		e := uint64(1)
		if out {
			e = 3
		}
		tab[word] |= e << shift
		return out
	})
}

// checkLabels verifies strong soundness for an arbitrary labeling (the fuzz
// path). len(labels) must equal the instance size.
func (s *labelSweep) checkLabels(labels []string) error {
	return s.verify(labels, func(v int) bool {
		t := s.tpl[v]
		kb := s.keyBuf[:0]
		for _, w := range t.Hosts() {
			kb = binary.AppendUvarint(kb, uint64(len(labels[w])))
			kb = append(kb, labels[w]...)
		}
		s.keyBuf = kb
		if out, ok := s.smemo[v][string(kb)]; ok {
			s.nDecideMemoHits++
			return out
		}
		s.nDecideInner++
		out := s.d.Decide(t.InstantiateInto(&s.mu, labels))
		s.smemo[v][string(kb)] = out
		return out
	})
}

func (s *labelSweep) verify(labels []string, decide func(v int) bool) error {
	s.nChecked++
	acc := s.acc[:0]
	var mask uint64
	for v := range s.tpl {
		s.nDecide++
		if decide(v) {
			acc = append(acc, v)
			mask |= 1 << uint(v&63)
		}
	}
	s.acc = acc
	var ok, hit bool
	if s.useMask {
		ok, hit = s.langMemo[mask]
	}
	if hit {
		s.nLangMemoHits++
	} else {
		s.nLangEvals++
		sub, _ := s.inst.G.InducedSubgraph(acc)
		ok = s.lang.Contains(sub)
		if s.useMask {
			s.langMemo[mask] = ok
		}
	}
	if !ok {
		return &StrongSoundnessViolation{
			Labeled:   MustNewLabeled(s.inst, append([]string(nil), labels...)),
			Accepting: append([]int(nil), acc...),
		}
	}
	return nil
}
