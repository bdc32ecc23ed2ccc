package decoders

import (
	"strconv"
	"testing"

	"hidinglcp/internal/core"
)

// roundTripSchemes lists every registered scheme plus the DegreeOneK
// variants the registry does not name.
func roundTripSchemes() []core.Scheme {
	out := []core.Scheme{DegreeOneK(2), DegreeOneK(3)}
	for _, e := range Schemes() {
		out = append(out, e.New())
	}
	return out
}

// reencode parses label with the decoder's own parser and, if it accepts,
// spells the parsed certificate again with the scheme's label builder.
func reencode(t *testing.T, d core.Decoder, label string) (string, bool) {
	switch d := d.(type) {
	case *trivialDecoder:
		c, ok := d.color(label)
		return strconv.Itoa(c), ok
	case *degOneKDecoder:
		c, ok := d.parse(label)
		switch c.kind {
		case 'B':
			return degOneKLabel(d.prefix, -1), ok
		case 'T':
			return degOneKLabel(d.prefix, -2), ok
		}
		return degOneKLabel(d.prefix, c.color), ok
	case *evenCycleDecoder:
		c, ok := parseCycleCert(label)
		return EvenCycleLabel(c.farPort[1], c.color[1], c.farPort[2], c.color[2]), ok
	case *unionDecoder:
		if l, ok := reencode(t, d.degOne, label); ok {
			return l, true
		}
		return reencode(t, d.cycle, label)
	case *shatterDecoder:
		c, ok := parseShatterCert(label)
		colors := make([]int, len(c.colors))
		for i := range colors {
			colors[i] = c.color(i)
		}
		switch c.typ {
		case 0:
			return ShatterPointLabel(c.id, colors), ok
		case 1:
			return ShatterNeighborLabel(c.id, colors), ok
		}
		return ShatterCompLabel(c.id, c.comp, c.x), ok
	case *watermelonDecoder:
		c, ok := parseMelonCert(label)
		if c.typ == 1 {
			return WatermelonEndpointLabel(c.id1, c.id2), ok
		}
		return WatermelonPathLabel(c.id1, c.id2, c.path, c.farPort[1], c.color[1], c.farPort[2], c.color[2]), ok
	}
	t.Fatalf("no round trip for decoder %T; extend reencode", d)
	return "", false
}

// FuzzCertRoundTrip checks the rule every parser follows: it accepts a
// label only if the label is exactly what the scheme's label builder emits
// for the parsed certificate. Whenever a parser accepts the fuzzed bytes,
// re-encoding the parsed value must give the same bytes back.
func FuzzCertRoundTrip(f *testing.F) {
	seen := map[string]bool{}
	add := func(labels ...string) {
		for _, l := range labels {
			if !seen[l] {
				seen[l] = true
				f.Add(l)
			}
		}
	}
	for _, e := range Schemes() {
		if e.Alphabet != nil {
			add(e.Alphabet()...)
		}
	}
	for _, k := range []int{2, 3, 66} {
		add(DegOneKAlphabet(k)...)
	}
	add(ShatterPointLabel(5, []int{0, 1}), ShatterPointLabelLiteral(5),
		ShatterNeighborLabel(12, []int{1, 0, 1}), ShatterCompLabel(7, 2, 1),
		WatermelonEndpointLabel(2, 9), WatermelonPathLabel(1, 8, 3, 2, 0, 1, 1))
	// Non-canonical spellings every parser rejects.
	add("01", "+1", "K3:01", "K3:+1", "C:01,0;2,1", "C:+1,0;2,1", "C:1,0;2,1x",
		"S2:+1:1:0", "W1:1:02")
	l1, l2 := ShatterHidingPair()
	melons, err := WatermelonHidingFamily()
	if err != nil {
		f.Fatal(err)
	}
	for _, fam := range append(melons, l1, l2) {
		add(fam.Labels...)
	}
	schemes := roundTripSchemes()
	f.Fuzz(func(t *testing.T, label string) {
		for _, s := range schemes {
			if got, ok := reencode(t, s.Decoder, label); ok && got != label {
				t.Errorf("%s accepts %q, which re-encodes as %q", s.Name, label, got)
			}
		}
	})
}
