package eval

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime/debug"
)

// ResultSchema versions the JSON envelope. Bump on incompatible payload
// changes so stored trajectories can be told apart.
const ResultSchema = "chronosntp/eval/v1"

// Meta is the provenance block of a Result: which experiment produced it
// and under which replication parameters. It is what a stored result needs
// to be reproduced (`attacksim -experiment <ID> -seed <Seed> -trials
// <Trials>`), and what table titles and Monte-Carlo notes are rendered
// from.
type Meta struct {
	ID     string `json:"id"`                // E1..E10
	Seed   int64  `json:"seed,omitempty"`    // first seed of the replica block (0 for closed-form experiments)
	Trials int    `json:"trials,omitempty"`  // Monte-Carlo replicas per grid point (0 for closed-form experiments)
	GitRev string `json:"git_rev,omitempty"` // vcs revision of the binary, when the build info carries one
}

// Payload is the typed, experiment-specific half of a Result: the grid
// axes and the per-cell aggregates, with no formatting applied. The text
// table is *derived* from it by Table, so rendered output can never hold
// information the serialized form lost.
type Payload interface {
	// Kind is the stable JSON discriminator ("figure1", "shift-study", …).
	Kind() string
	// Table renders the payload as the experiment's text table.
	Table(m Meta) *Table
}

// Result is one experiment's typed outcome: provenance plus payload. All
// text tables the harness prints are rendered from a Result, and the same
// struct marshals to JSON (MarshalJSON) for the results pipeline.
type Result struct {
	Meta    Meta
	Payload Payload
}

// Table renders the result's table.
func (r *Result) Table() *Table { return r.Payload.Table(r.Meta) }

// Render renders the result's table as aligned text.
func (r *Result) Render() string { return r.Table().Render() }

// resultJSON is the stored envelope.
type resultJSON struct {
	Schema  string          `json:"schema"`
	Meta    Meta            `json:"meta"`
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// MarshalJSON stores the result under the versioned envelope with the
// payload's kind as discriminator.
func (r *Result) MarshalJSON() ([]byte, error) {
	if r.Payload == nil {
		return nil, fmt.Errorf("eval: result %s has no payload", r.Meta.ID)
	}
	raw, err := json.Marshal(r.Payload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(resultJSON{
		Schema:  ResultSchema,
		Meta:    r.Meta,
		Kind:    r.Payload.Kind(),
		Payload: raw,
	})
}

// newMeta stamps an experiment's provenance block.
func newMeta(id string, seed int64, trials int) Meta {
	return Meta{ID: id, Seed: seed, Trials: trials, GitRev: buildRevision()}
}

// buildRevision is the vcs revision baked into the running binary, if any
// ("" under plain `go test` builds without VCS stamping).
func buildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	return ""
}

// Float is a float64 whose JSON form survives ±Inf and NaN (stored as the
// strings "+Inf", "-Inf", "NaN") — the E4 security bound legitimately
// reaches +Inf years for sub-threshold attackers, which encoding/json
// rejects on a bare float64.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}
