//go:build !race

package decoders

import "testing"

// TestParseCertAllocs pins every certificate parser at zero allocations,
// for a label it accepts and for one it rejects: the parsers scan the
// label in place. The race detector instruments allocations, so this runs
// only in plain builds.
func TestParseCertAllocs(t *testing.T) {
	trivial := Trivial(3).Decoder.(*trivialDecoder)
	degOne := DegreeOne().Decoder.(*degOneKDecoder)
	degOneK := DegreeOneK(3).Decoder.(*degOneKDecoder)
	for _, tc := range []struct {
		name   string
		parse  func(string) bool
		accept string
		reject string
	}{
		{"trivial", func(l string) bool { _, ok := trivial.color(l); return ok }, "2", "02"},
		{"degree-one", func(l string) bool { _, ok := degOne.parse(l); return ok }, DegOneTop, "01"},
		{"degree-one-k", func(l string) bool { _, ok := degOneK.parse(l); return ok }, DegOneKLabel(3, 2), "K3:+1"},
		{"even-cycle", func(l string) bool { _, ok := parseCycleCert(l); return ok }, EvenCycleLabel(1, 0, 2, 1), "C:1,0;2,1x"},
		{"shatter", func(l string) bool { _, ok := parseShatterCert(l); return ok }, ShatterNeighborLabel(5, []int{0, 1, 1}), "S2:+1:1:0"},
		{"watermelon", func(l string) bool { _, ok := parseMelonCert(l); return ok }, WatermelonPathLabel(1, 8, 3, 2, 0, 1, 1), "W1:1:02"},
	} {
		for _, l := range []string{tc.accept, tc.reject} {
			want := l == tc.accept
			if got := tc.parse(l); got != want {
				t.Fatalf("%s: parse(%q) = %v, want %v", tc.name, l, got, want)
			}
			if n := testing.AllocsPerRun(100, func() { tc.parse(l) }); n != 0 {
				t.Errorf("%s: parse(%q) allocates %.1f times, want 0", tc.name, l, n)
			}
		}
	}
}
