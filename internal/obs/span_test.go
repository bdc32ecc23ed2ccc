package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer(16)
	sc := NewScope().WithTracer(tr)
	root := sc.Span("root")
	child := root.Child("child")
	grand := child.Child("grandchild")
	grand.SetAttr("shard", "3")
	grand.End()
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Records land in end order: grandchild, child, root.
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root has parent %d", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent = %d, root id = %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Errorf("grandchild parent = %d, child id = %d", byName["grandchild"].Parent, byName["child"].ID)
	}
	attrs := byName["grandchild"].Attrs
	if len(attrs) != 1 || attrs[0].Key != "shard" || attrs[0].Value != "3" {
		t.Errorf("grandchild attrs = %v", attrs)
	}
	for _, s := range spans {
		if s.DurationNS < 0 || s.StartUnixNS == 0 {
			t.Errorf("span %s has implausible timing %+v", s.Name, s)
		}
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Start(fmt.Sprintf("%d", i), nil).End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want ring capacity 4", len(spans))
	}
	for i, s := range spans {
		if want := fmt.Sprintf("%d", 6+i); s.Name != want {
			t.Errorf("span %d name = %q, want %q (oldest-first after eviction)", i, s.Name, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.Start("phase", nil)
	sp.End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Spans []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.Spans) != 1 || decoded.Spans[0].Name != "phase" {
		t.Errorf("spans = %+v", decoded.Spans)
	}
}
