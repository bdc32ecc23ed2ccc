package obs

import (
	"strings"
	"testing"
)

func TestRedactStringHidesBytes(t *testing.T) {
	secret := "SECRET-CERT-0xdeadbeef"
	got := RedactString(secret)
	if strings.Contains(got, "SECRET") || strings.Contains(got, "deadbeef") {
		t.Fatalf("RedactString leaked input bytes: %q", got)
	}
	if !strings.Contains(got, "len=22") {
		t.Errorf("RedactString(%q) = %q, want the length to survive", secret, got)
	}
	if got != RedactString(secret) {
		t.Error("RedactString is not deterministic")
	}
	if got == RedactString("SECRET-CERT-0xdeadbeee") {
		t.Error("RedactString digests distinct inputs identically (32-bit collision on adjacent strings is a red flag)")
	}
}
