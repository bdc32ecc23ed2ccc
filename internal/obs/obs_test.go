package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestZeroScopeIsNoOp(t *testing.T) {
	var sc Scope
	if sc.Enabled() {
		t.Error("zero scope reports enabled")
	}
	// Every accessor and every method on what it returns must be callable.
	sc.Counter("x").Add(3)
	sc.Counter("x").Inc()
	if got := sc.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	sc.Gauge("g").Set(7)
	if got := sc.Gauge("g").Value(); got != 0 {
		t.Errorf("nil gauge value = %d", got)
	}
	sc.Histogram("h").Observe(5)
	if got := sc.Histogram("h").Count(); got != 0 {
		t.Errorf("nil histogram count = %d", got)
	}
	sp := sc.Span("root")
	sp.SetAttr("k", "v")
	sp.Child("child").End()
	sp.End()
	sc.Prog().StartPhase("p", 10)
	sc.Prog().Add(1)
	sc.Prog().SetExtra(func() string { return "x" })
	sc.Prog().EndPhase()
	sc.Prog().Close()
	if snap := sc.Registry().Snapshot(); snap != nil {
		t.Errorf("nil registry snapshot = %v", snap)
	}
	var m *RunManifest
	m.SetConfig("k", "v")
	m.Finalize(sc, nil)
}

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("runs")
	c.Add(2)
	c.Inc()
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if reg.Counter("runs") != c {
		t.Error("counter lookup is not stable")
	}
	g := reg.Gauge("depth")
	g.Set(10)
	if got := g.Value(); got != 10 {
		t.Errorf("gauge = %d, want 10", got)
	}
	h := reg.Histogram("lat")
	for _, v := range []int64{0, 1, 2, 3, 1000, -5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Errorf("histogram count = %d, want 6", got)
	}

	snap := reg.Snapshot()
	byName := map[string]MetricSnapshot{}
	for i, s := range snap {
		byName[s.Name] = s
		if i > 0 && snap[i-1].Name > s.Name {
			t.Errorf("snapshot not sorted: %q before %q", snap[i-1].Name, s.Name)
		}
	}
	if s := byName["runs"]; s.Kind != KindCounter || s.Value != 3 {
		t.Errorf("runs snapshot = %+v", s)
	}
	if s := byName["depth"]; s.Kind != KindGauge || s.Value != 10 {
		t.Errorf("depth snapshot = %+v", s)
	}
	s := byName["lat"]
	if s.Kind != KindHistogram || s.Count != 6 || s.Sum != 1006 || s.Min != 0 || s.Max != 1000 {
		t.Errorf("lat snapshot = %+v", s)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != 6 {
		t.Errorf("bucket counts sum to %d, want 6", bucketTotal)
	}
}

func TestBucketUpperBound(t *testing.T) {
	if got := bucketUpperBound(0); got != 0 {
		t.Errorf("bucket 0 upper bound = %d", got)
	}
	if got := bucketUpperBound(3); got != 7 {
		t.Errorf("bucket 3 upper bound = %d", got)
	}
	if got := bucketUpperBound(63); got != math.MaxInt64 {
		t.Errorf("bucket 63 upper bound = %d", got)
	}
}

func TestScopeLabel(t *testing.T) {
	sc := NewScope()
	if got := sc.Label("build"); got != "build" {
		t.Errorf("unnamed label = %q", got)
	}
	named := sc.Named("scheme=even-cycle")
	if got := named.Label("build"); got != "scheme=even-cycle: build" {
		t.Errorf("named label = %q", got)
	}
	if got := sc.Label("build"); got != "build" {
		t.Error("Named must not mutate the receiver")
	}
	// Named and WithTracer are value-copies sharing one registry.
	named.Counter("c").Inc()
	if got := sc.Counter("c").Value(); got != 1 {
		t.Errorf("derived scopes must share the registry, got %d", got)
	}
}

func TestProgressLines(t *testing.T) {
	var buf syncBuffer
	p := NewProgress(&buf, 50*time.Millisecond)
	defer p.Close()
	p.StartPhase("unit-test build", 10)
	p.SetExtra(func() string { return "detail-string" })
	p.Add(4)
	time.Sleep(120 * time.Millisecond)
	p.EndPhase()
	out := buf.String()
	if !strings.Contains(out, "progress: unit-test build 4/10 (40.0%)") {
		t.Errorf("missing progress line in %q", out)
	}
	if !strings.Contains(out, "eta") {
		t.Errorf("missing ETA in %q", out)
	}
	if !strings.Contains(out, "detail-string") {
		t.Errorf("missing extra detail in %q", out)
	}
	if !strings.Contains(out, "done") {
		t.Errorf("missing final line in %q", out)
	}
	// After EndPhase the reporter is quiet.
	buf.Reset()
	time.Sleep(120 * time.Millisecond)
	if got := buf.String(); got != "" {
		t.Errorf("lines emitted after EndPhase: %q", got)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the ticker goroutine writes
// while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}
