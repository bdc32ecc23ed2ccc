package obs

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
)

// ManifestSchema identifies the run-manifest JSON shape; bump the suffix on
// breaking changes. The machine-checkable schema is committed at
// docs/run-manifest.schema.json and enforced by cmd/manifestcheck in CI.
const ManifestSchema = "hidinglcp/run-manifest/v1"

// RunManifest is the single JSON artifact a CLI run leaves behind: what ran
// (tool, args, config, git revision), when and for how long, how it ended,
// and a snapshot of every metric plus any retained spans.
type RunManifest struct {
	Schema      string            `json:"schema"`
	Tool        string            `json:"tool"`
	Args        []string          `json:"args,omitempty"`
	Config      map[string]string `json:"config,omitempty"`
	GitRevision string            `json:"git_revision,omitempty"`
	GitDirty    bool              `json:"git_dirty,omitempty"`
	GoVersion   string            `json:"go_version,omitempty"`
	StartUnixNS int64             `json:"start_unix_ns"`
	EndUnixNS   int64             `json:"end_unix_ns"`
	DurationNS  int64             `json:"duration_ns"`
	Outcome     string            `json:"outcome"`
	Error       string            `json:"error,omitempty"`
	Metrics     []MetricSnapshot  `json:"metrics"`
	Spans       []SpanRecord      `json:"spans,omitempty"`
}

// NewManifest opens a manifest for one run of tool, stamping the start
// time, go version, and the git revision baked into the binary.
func NewManifest(tool string, args []string) *RunManifest {
	rev, dirty := GitRevision()
	return &RunManifest{
		Schema:      ManifestSchema,
		Tool:        tool,
		Args:        args,
		Config:      map[string]string{},
		GitRevision: rev,
		GitDirty:    dirty,
		GoVersion:   runtime.Version(),
		StartUnixNS: Now(),
	}
}

// SetConfig records one configuration key (typically a resolved flag).
func (m *RunManifest) SetConfig(key, value string) {
	if m == nil {
		return
	}
	if m.Config == nil {
		m.Config = map[string]string{}
	}
	m.Config[key] = value
}

// Finalize stamps the end time and outcome and freezes the scope's metrics
// (and the tracer's spans, when one is attached).
func (m *RunManifest) Finalize(sc Scope, runErr error) {
	if m == nil {
		return
	}
	m.EndUnixNS = Now()
	m.DurationNS = m.EndUnixNS - m.StartUnixNS
	if runErr != nil {
		m.Outcome = "error"
		m.Error = runErr.Error()
	} else {
		m.Outcome = "ok"
	}
	m.Metrics = sc.Registry().Snapshot()
	if m.Metrics == nil {
		m.Metrics = []MetricSnapshot{}
	}
	if tr := sc.Tracer(); tr != nil {
		// Leave an empty slice nil so omitempty keeps the JSON round-trippable.
		if spans := tr.Spans(); len(spans) > 0 {
			m.Spans = spans
		}
	}
}

// MarshalIndent renders the manifest as indented JSON.
func (m *RunManifest) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// WriteFile writes the manifest as indented JSON to path.
func (m *RunManifest) WriteFile(path string) error {
	data, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// GitRevision returns the VCS revision stamped into the running binary by
// the go tool, and whether the working tree was dirty at build time. It
// reports "unknown" when no build info is available (e.g. under `go test`).
func GitRevision() (rev string, dirty bool) {
	rev = "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return rev, false
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return rev, dirty
}
