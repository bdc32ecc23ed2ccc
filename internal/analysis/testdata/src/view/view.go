// Package view is a minimal replica of hidinglcp/internal/view for
// analyzer fixtures: the analyzers match on the package name "view" and
// the View type shape, so fixtures stay self-contained.
package view

// View mirrors the fields of the real radius-r view.
type View struct {
	Radius int
	Adj    [][]int
	Dist   []int
	Ports  map[[2]int]int
	IDs    []int
	Labels []string
	NBound int
}

// N returns the number of nodes in the view.
func (v *View) N() int { return len(v.Adj) }

// Degree returns the local degree of node i.
func (v *View) Degree(i int) int { return len(v.Adj[i]) }

// LocalNodeWithID returns the local index carrying identifier id, or -1.
func (v *View) LocalNodeWithID(id int) int {
	for i, x := range v.IDs {
		if x != 0 && x == id {
			return i
		}
	}
	return -1
}

// BinKey mirrors the real canonical key, which embeds the raw label bytes;
// certflow treats its result as a certificate source.
func (v *View) BinKey() []byte {
	var b []byte
	for _, l := range v.Labels {
		b = append(b, l...)
	}
	return b
}

// PortKey mirrors the real identity key, which embeds the raw label bytes
// too; a certflow source.
func (v *View) PortKey() []byte { return v.BinKey() }

// TemplateKey mirrors the label-free key prefix of a view template.
type TemplateKey struct{ prefix []byte }

// AppendKey mirrors the real template key writer: it appends the labels it
// is given, so certflow treats its result as a certificate source.
func (k *TemplateKey) AppendKey(dst []byte, labels []string) []byte {
	dst = append(dst, k.prefix...)
	for _, l := range labels {
		dst = append(dst, l...)
	}
	return dst
}

// KeyDigest mirrors the real redacted fingerprint; a certflow sanitizer.
func (v *View) KeyDigest() string { return "fnv32a:00000000#0" }
