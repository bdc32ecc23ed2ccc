// Package decoders implements every certification scheme constructed in the
// paper, each as a core.Scheme bundling the decoder, its constructive
// prover, the promise problem it certifies, and its certificate encoding:
//
//   - Trivial(k): the folklore revealing LCP for k-coloring with
//     ceil(log k)-bit certificates (Section 1) — the non-hiding baseline.
//   - DegreeOne: the anonymous strong and hiding scheme for graphs with
//     minimum degree 1 (Lemma 4.1), constant-size certificates. It runs on
//     the DegreeOneK decoder at k = 2 with the bare spelling 0/1/B/T.
//   - EvenCycle: the anonymous strong and hiding scheme for even cycles via
//     2-edge-coloring (Lemma 4.2), constant-size certificates; hides the
//     coloring at every node.
//   - Union: the combined scheme of Theorem 1.1 for H1 ∪ H2.
//   - Shatter: the non-anonymous scheme for graphs with a shatter point
//     (Theorem 1.3), certificates of size O(min{Δ², n} + log n).
//   - Watermelon: the non-anonymous scheme for watermelon graphs
//     (Theorem 1.4), certificates of size O(log n).
//
// Labels are encoded as human-readable strings; each scheme documents its
// binary encoding through CertBits so the experiment harness can reproduce
// the paper's certificate-size claims.
//
// Every decoder accepts exactly its encoder's image: a label parses only if
// it is byte-for-byte what the scheme's label builder emits, with numbers in
// canonical decimal (no sign, no leading zero, no trailing bytes). Each
// parser is one left-to-right pass of certScanner and allocates nothing.
// Verdicts on the sweep alphabets cannot move under this rule, because
// those alphabets hold builder outputs plus symbols no scheme spells (such
// as "x" and "garbage"), and a fault-corrupted label XORs every byte with a
// nonzero mask, so it never keeps a scheme prefix and a one-byte DegreeOne
// label stays one byte.
package decoders

import "math"

// bitsFor returns the number of bits needed to distinguish values 0..m-1
// (at least 1).
func bitsFor(m int) int {
	if m <= 2 {
		return 1
	}
	b := 0
	for v := m - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// bitsForValue returns the number of bits in the binary representation of
// v >= 0 (at least 1).
func bitsForValue(v int) int {
	if v <= 1 {
		return 1
	}
	b := 0
	for ; v > 0; v >>= 1 {
		b++
	}
	return b
}

// certScanner reads a certificate left to right in its canonical spelling.
// The first mismatch clears ok and every later read fails too, so a parser
// makes all its reads and checks done once at the end.
type certScanner struct {
	s  string // the unread rest of the label
	ok bool
}

func newCertScanner(label string) certScanner { return certScanner{s: label, ok: true} }

// lit consumes the literal p.
func (sc *certScanner) lit(p string) {
	if sc.ok && len(sc.s) >= len(p) && sc.s[:len(p)] == p {
		sc.s = sc.s[len(p):]
		return
	}
	sc.ok = false
}

// num consumes a number in canonical decimal: "0", or a nonzero digit
// followed by digits. A leading "0" ends the number, so a spelling such as
// "01" leaves a digit that the next read rejects. Values beyond
// math.MaxInt fail.
func (sc *certScanner) num() int {
	s := sc.s
	if !sc.ok || s == "" || s[0] < '0' || s[0] > '9' {
		sc.ok = false
		return 0
	}
	if s[0] == '0' {
		sc.s = s[1:]
		return 0
	}
	v, i := 0, 0
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		d := int(s[i] - '0')
		if v > (math.MaxInt-d)/10 {
			sc.ok = false
			return 0
		}
		v = v*10 + d
	}
	sc.s = s[i:]
	return v
}

// bits consumes the longest run of '0' and '1' bytes, possibly empty.
func (sc *certScanner) bits() string {
	i := 0
	for sc.ok && i < len(sc.s) && (sc.s[i] == '0' || sc.s[i] == '1') {
		i++
	}
	run := sc.s[:i]
	sc.s = sc.s[i:]
	return run
}

// done reports whether every read matched and the whole label was consumed.
func (sc *certScanner) done() bool { return sc.ok && sc.s == "" }
