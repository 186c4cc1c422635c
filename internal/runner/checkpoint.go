package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// CheckpointSchema versions the checkpoint file format. A file carrying a
// different schema string is rejected on resume.
const CheckpointSchema = "chronosntp/checkpoint/v1"

// The checkpoint file is JSONL: a header line followed by one line per
// completed task. Appends are newline-terminated and fsynced, so a killed
// run leaves at most one partial trailing line — which resume drops (it
// is the kill artifact) — while any *newline-terminated* garbage is
// treated as corruption and reported, never skipped silently.
//
//	{"schema":"chronosntp/checkpoint/v1","fingerprint":"…","total":64,"description":"E10 …"}
//	{"index":0,"result":{…}}
//	{"index":3,"result":{…}}
//
// Tasks may complete (and be recorded) in any completion order; the
// reduction downstream is keyed by task index, so a resumed run is
// bit-identical to an uninterrupted one.

// checkpointHeader is the first line of a checkpoint file.
type checkpointHeader struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	Total       int    `json:"total"`
	Description string `json:"description,omitempty"`
}

// checkpointEntry is one completed task's line.
type checkpointEntry struct {
	Index  int             `json:"index"`
	Result json.RawMessage `json:"result"`
}

// Checkpoint is an append-only store of completed task results, safe for
// concurrent Complete calls from the worker pool.
type Checkpoint struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	header   checkpointHeader
	restored map[int]json.RawMessage
}

// Fingerprint canonically fingerprints a run configuration: the SHA-256 of
// its JSON form. Embed every parameter that changes the computed results
// (seed, grid axes, trial count) and exclude those that don't (parallelism,
// output paths).
func Fingerprint(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Unmarshalable configs cannot collide with real fingerprints.
		return "unfingerprintable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CreateCheckpoint starts a fresh checkpoint file at path (truncating any
// existing file), stamped with the run's fingerprint and total task count.
func CreateCheckpoint(path, fingerprint string, total int, description string) (*Checkpoint, error) {
	if total <= 0 {
		return nil, fmt.Errorf("runner: checkpoint needs a positive task total, got %d", total)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: creating checkpoint: %w", err)
	}
	c := &Checkpoint{
		f:    f,
		path: path,
		header: checkpointHeader{
			Schema:      CheckpointSchema,
			Fingerprint: fingerprint,
			Total:       total,
			Description: description,
		},
		restored: make(map[int]json.RawMessage),
	}
	line, err := json.Marshal(c.header)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := c.append(line); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: writing checkpoint header: %w", err)
	}
	return c, nil
}

// ResumeCheckpoint opens an existing checkpoint file, validates its header
// against the expected fingerprint and task total, and loads every
// newline-terminated entry. A partial trailing line without a final
// newline — what a mid-write kill leaves behind — is discarded (and
// truncated away so later appends stay well-formed); any other malformed
// content is an error, never a silent skip.
func ResumeCheckpoint(path, fingerprint string, total int) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runner: resuming checkpoint: %w", err)
	}
	headerLine, rest, found := bytes.Cut(data, []byte("\n"))
	if !found {
		return nil, fmt.Errorf("runner: checkpoint %s: truncated header (no complete first line)", path)
	}
	var h checkpointHeader
	if err := json.Unmarshal(headerLine, &h); err != nil {
		return nil, fmt.Errorf("runner: checkpoint %s: corrupt header: %w", path, err)
	}
	if h.Schema != CheckpointSchema {
		return nil, fmt.Errorf("runner: checkpoint %s: unsupported schema %q (want %q)", path, h.Schema, CheckpointSchema)
	}
	if h.Fingerprint != fingerprint {
		return nil, fmt.Errorf("runner: checkpoint %s was written by a different run configuration (fingerprint %s…, want %s…) — rerun with the original flags or start a fresh -checkpoint",
			path, shortFP(h.Fingerprint), shortFP(fingerprint))
	}
	if h.Total != total {
		return nil, fmt.Errorf("runner: checkpoint %s holds %d tasks, this run has %d", path, h.Total, total)
	}

	restored := make(map[int]json.RawMessage)
	validLen := len(headerLine) + 1
	for len(rest) > 0 {
		line, tail, terminated := bytes.Cut(rest, []byte("\n"))
		if !terminated {
			// Partial trailing line: the kill artifact. Drop it.
			break
		}
		var e checkpointEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("runner: checkpoint %s: corrupt entry after %d restored tasks: %w", path, len(restored), err)
		}
		if e.Index < 0 || e.Index >= h.Total {
			return nil, fmt.Errorf("runner: checkpoint %s: entry index %d out of range [0,%d)", path, e.Index, h.Total)
		}
		restored[e.Index] = e.Result
		validLen += len(line) + 1
		rest = tail
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: reopening checkpoint: %w", err)
	}
	// Truncate the kill artifact (if any) so appends start on a fresh line.
	if err := f.Truncate(int64(validLen)); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: trimming checkpoint: %w", err)
	}
	if _, err := f.Seek(int64(validLen), 0); err != nil {
		f.Close()
		return nil, err
	}
	return &Checkpoint{f: f, path: path, header: h, restored: restored}, nil
}

// shortFP abbreviates a fingerprint for error messages.
func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// Total is the task count the checkpoint was created for.
func (c *Checkpoint) Total() int { return c.header.Total }

// Restored returns the stored result of task i, if the checkpoint holds
// one.
func (c *Checkpoint) Restored(i int) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.restored[i]
	return raw, ok
}

// Complete persists task i's result. The entry is newline-terminated and
// fsynced before Complete returns, so a kill at any instant loses at most
// the in-flight entry.
func (c *Checkpoint) Complete(i int, v interface{}) error {
	if i < 0 || i >= c.header.Total {
		return fmt.Errorf("runner: checkpoint task index %d out of range [0,%d)", i, c.header.Total)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: checkpointing task %d: %w", i, err)
	}
	line, err := json.Marshal(checkpointEntry{Index: i, Result: raw})
	if err != nil {
		return err
	}
	return c.append(line)
}

// append writes one newline-terminated line and syncs.
func (c *Checkpoint) append(line []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return c.f.Sync()
}

// Close releases the underlying file.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Close()
}
