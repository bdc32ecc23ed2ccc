package obs

// Scope is the observability handle the pipelines thread through their hot
// paths: a Registry for metrics, an optional Tracer for spans, an optional
// EventSink for structured log events, an optional Progress for periodic
// status lines, and a name that prefixes phase labels so concurrent
// consumers (lcpcheck schemes, experiments) can be told apart in the
// output.
//
// The zero value is a complete no-op — Enabled() is false, every metric
// accessor returns nil (whose methods are nil-safe), Span returns a nil
// span, and Prog returns a nil Progress — so library code instruments
// unconditionally and only pays when a caller opted in.
type Scope struct {
	reg  *Registry
	tr   *Tracer
	prog *Progress
	sink EventSink
	run  string
	name string
}

// NewScope returns a live scope backed by a fresh Registry, with no tracer
// or progress reporter attached.
func NewScope() Scope {
	return Scope{reg: NewRegistry()}
}

// WithTracer returns a copy of the scope that records spans through t.
func (s Scope) WithTracer(t *Tracer) Scope {
	s.tr = t
	return s
}

// WithProgress returns a copy of the scope that reports progress through p.
func (s Scope) WithProgress(p *Progress) Scope {
	s.prog = p
	return s
}

// WithEvents returns a copy of the scope that emits structured log events
// through sink, stamped with the run correlation ID (see NewRunID).
func (s Scope) WithEvents(sink EventSink, runID string) Scope {
	s.sink = sink
	s.run = runID
	return s
}

// Named returns a copy of the scope whose phase labels are prefixed with
// name (see Label).
func (s Scope) Named(name string) Scope {
	s.name = name
	return s
}

// Label renders a phase label: "<name>: <op>" under Named, else op.
func (s Scope) Label(op string) string {
	if s.name == "" {
		return op
	}
	return s.name + ": " + op
}

// Enabled reports whether the scope collects metrics.
func (s Scope) Enabled() bool { return s.reg != nil }

// Registry returns the backing registry (nil for a disabled scope).
func (s Scope) Registry() *Registry { return s.reg }

// Tracer returns the attached tracer (nil when tracing is off).
func (s Scope) Tracer() *Tracer { return s.tr }

// Counter returns the named counter, or nil on a disabled scope.
func (s Scope) Counter(name string) *Counter { return s.reg.Counter(name) }

// Gauge returns the named gauge, or nil on a disabled scope.
func (s Scope) Gauge(name string) *Gauge { return s.reg.Gauge(name) }

// Histogram returns the named histogram, or nil on a disabled scope.
func (s Scope) Histogram(name string) *Histogram { return s.reg.Histogram(name) }

// Span starts a root span, or returns the nil no-op span when no tracer is
// attached. End the returned span to record it.
func (s Scope) Span(name string) *Span {
	if s.tr == nil {
		return nil
	}
	return s.tr.Start(name, nil)
}

// Prog returns the attached progress reporter; the nil Progress returned on
// a plain scope accepts every method.
func (s Scope) Prog() *Progress { return s.prog }

// EventsEnabled reports whether an event sink is attached. Hot call sites
// check it before assembling field slices, so the disabled path costs one
// nil comparison and nothing else.
func (s Scope) EventsEnabled() bool { return s.sink != nil }

// EmitEvent sends one structured event to the attached sink, stamping the
// time, the run ID, and the scope's phase label. Without a sink it is a
// no-op that never touches the fields.
func (s Scope) EmitEvent(level Level, name string, fields ...Attr) {
	s.EmitSpanEvent(nil, level, name, fields...)
}

// EmitSpanEvent is EmitEvent correlated to an in-flight span (a nil span
// leaves the correlation ID zero).
func (s Scope) EmitSpanEvent(sp *Span, level Level, name string, fields ...Attr) {
	if s.sink == nil {
		return
	}
	s.sink.EmitLogEvent(LogEvent{
		TimeUnixNS: Now(),
		Level:      level,
		Name:       name,
		Run:        s.run,
		Phase:      s.name,
		Span:       sp.ID(),
		Fields:     fields,
	})
}
