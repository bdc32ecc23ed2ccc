package obs

import (
	"fmt"
	"hash/fnv"
)

// Redaction is the only sanctioned way certificate-derived bytes cross into
// the observability layer. The hiding property (Section 2.4 of the paper)
// promises that certificates reveal nothing about the witness coloring
// beyond its existence, so raw label bytes must never reach metrics, span
// attributes, events, progress lines, run manifests, or log output — all of
// which outlive the run and are routinely uploaded as CI artifacts. The
// certflow analyzer (internal/analysis) enforces this statically: a value
// tainted by certificate sources may reach an obs sink only through
// RedactString below (or a length), which keeps the observable residue to
// sizes and one-way digests.

// RedactString reduces s to its length and a 32-bit FNV-1a digest —
// enough to correlate two occurrences of the same value across a trace,
// nothing to reconstruct the bytes from.
func RedactString(s string) string {
	h := fnv.New32a()
	h.Write([]byte(s))
	return fmt.Sprintf("len=%d,fnv32a=%08x", len(s), h.Sum32())
}
