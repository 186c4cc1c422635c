package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintStable pins the fingerprint contract: identical configs
// collide, different configs don't, and parallelism is simply not part of
// the fingerprinted struct by convention.
func TestFingerprintStable(t *testing.T) {
	type cfg struct {
		Seed   int64
		Trials int
	}
	a := Fingerprint(cfg{Seed: 1, Trials: 4})
	b := Fingerprint(cfg{Seed: 1, Trials: 4})
	c := Fingerprint(cfg{Seed: 2, Trials: 4})
	if a != b {
		t.Errorf("identical configs fingerprint differently: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("different configs collide: %s", a)
	}
	if len(a) != 64 {
		t.Errorf("fingerprint is not a sha256 hex digest: %q", a)
	}
}

// TestCheckpointRoundTrip: create, complete a few tasks, resume, and read
// the restored entries back.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	fp := Fingerprint("round-trip")
	c, err := CreateCheckpoint(path, fp, 5, "round trip")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 3, 2} {
		if err := c.Complete(i, map[string]int{"value": i * 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := ResumeCheckpoint(path, fp, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.restored) != 3 {
		t.Fatalf("restored %d entries, want 3", len(r.restored))
	}
	for _, i := range []int{0, 2, 3} {
		raw, ok := r.Restored(i)
		if !ok {
			t.Fatalf("task %d missing from resumed checkpoint", i)
		}
		var v struct {
			Value int `json:"value"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		if v.Value != i*10 {
			t.Errorf("task %d restored value %d, want %d", i, v.Value, i*10)
		}
	}
	if _, ok := r.Restored(1); ok {
		t.Error("task 1 was never completed but reports as restored")
	}
}

// TestCreateCheckpointRejectsNonPositiveTotal: a zero-task checkpoint is a
// caller bug, not a file to create.
func TestCreateCheckpointRejectsNonPositiveTotal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	for _, total := range []int{0, -3} {
		if _, err := CreateCheckpoint(path, "fp", total, ""); err == nil {
			t.Errorf("CreateCheckpoint accepted total=%d", total)
		}
	}
}

// TestResumeCorruptionHandling: every malformed file yields a clear error,
// never a panic or a silent skip — except the one sanctioned artifact, a
// partial trailing line without a final newline (a mid-write kill).
func TestResumeCorruptionHandling(t *testing.T) {
	fp := Fingerprint("corruption")
	header := fmt.Sprintf(`{"schema":%q,"fingerprint":%q,"total":4}`, CheckpointSchema, fp)
	entry := func(i int) string {
		return fmt.Sprintf(`{"index":%d,"result":{"v":%d}}`, i, i)
	}

	cases := []struct {
		name    string
		content string
		wantErr string // substring; "" means resume must succeed
		want    int    // restored count on success
	}{
		{
			name:    "missing file",
			content: "", // special-cased below: file not created at all
			wantErr: "no such file",
		},
		{
			name:    "empty file",
			content: "",
			wantErr: "truncated header",
		},
		{
			name:    "header without newline",
			content: header,
			wantErr: "truncated header",
		},
		{
			name:    "garbage header",
			content: "not json at all\n",
			wantErr: "corrupt header",
		},
		{
			name:    "foreign schema",
			content: `{"schema":"other/v9","fingerprint":"x","total":4}` + "\n",
			wantErr: "unsupported schema",
		},
		{
			name: "fingerprint mismatch",
			content: fmt.Sprintf(`{"schema":%q,"fingerprint":"deadbeefdeadbeef","total":4}`,
				CheckpointSchema) + "\n",
			wantErr: "different run configuration",
		},
		{
			name: "total mismatch",
			content: fmt.Sprintf(`{"schema":%q,"fingerprint":%q,"total":9}`,
				CheckpointSchema, fp) + "\n",
			wantErr: "holds 9 tasks",
		},
		{
			name:    "newline-terminated garbage entry",
			content: header + "\n" + entry(0) + "\n" + "garbage{{{\n",
			wantErr: "corrupt entry after 1 restored tasks",
		},
		{
			name:    "entry index out of range",
			content: header + "\n" + entry(0) + "\n" + `{"index":44,"result":{}}` + "\n",
			wantErr: "out of range",
		},
		{
			name:    "negative entry index",
			content: header + "\n" + `{"index":-1,"result":{}}` + "\n",
			wantErr: "out of range",
		},
		{
			name:    "partial trailing line dropped",
			content: header + "\n" + entry(0) + "\n" + entry(1) + "\n" + `{"index":2,"resul`,
			want:    2,
		},
		{
			name:    "clean file",
			content: header + "\n" + entry(0) + "\n" + entry(1) + "\n" + entry(2) + "\n",
			want:    3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ckpt.json")
			if tc.name != "missing file" {
				writeFile(t, path, tc.content)
			}
			c, err := ResumeCheckpoint(path, fp, 4)
			if tc.wantErr != "" {
				if err == nil {
					c.Close()
					t.Fatalf("resume of %s succeeded, want error containing %q", tc.name, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if len(c.restored) != tc.want {
				t.Errorf("restored %d entries, want %d", len(c.restored), tc.want)
			}
		})
	}
}

// TestResumeTruncatesKillArtifact: after resuming past a partial trailing
// line, new appends must land on a fresh line — the artifact is physically
// truncated, not just skipped in memory.
func TestResumeTruncatesKillArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	fp := Fingerprint("truncate")
	header := fmt.Sprintf(`{"schema":%q,"fingerprint":%q,"total":3}`, CheckpointSchema, fp)
	writeFile(t, path, header+"\n"+`{"index":0,"result":1}`+"\n"+`{"index":1,"res`)

	c, err := ResumeCheckpoint(path, fp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(2, 3); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// The file must now be fully resumable with all three entries intact.
	r, err := ResumeCheckpoint(path, fp, 3)
	if err != nil {
		t.Fatalf("file corrupted by post-resume appends: %v", err)
	}
	defer r.Close()
	if len(r.restored) != 3 {
		t.Errorf("restored %d entries after rewrite, want 3", len(r.restored))
	}
}

// TestCompleteRejectsOutOfRange: the writer validates indices too.
func TestCompleteRejectsOutOfRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	c, err := CreateCheckpoint(path, "fp", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, i := range []int{-1, 2, 99} {
		if err := c.Complete(i, "x"); err == nil {
			t.Errorf("Complete(%d) accepted an out-of-range index", i)
		}
	}
}

// TestMapSkipsRestored: restored tasks are decoded into their slots and
// never re-executed; fresh tasks run exactly once and are persisted.
func TestMapSkipsRestored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	fp := Fingerprint("skip")
	c, err := CreateCheckpoint(path, fp, 6, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 4} {
		if err := c.Complete(i, i*100); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	r, err := ResumeCheckpoint(path, fp, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var executions atomic.Int64
	got, err := Map(context.Background(), 6, 3, r, func(i int) (int, error) {
		executions.Add(1)
		return i * 100, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 3 {
		t.Errorf("executed %d fresh tasks, want 3 (restored tasks must not re-run)", executions.Load())
	}
	for i, v := range got {
		if v != i*100 {
			t.Errorf("task %d value %d, want %d", i, v, i*100)
		}
	}

	// Second resume: everything is now restored, nothing executes.
	r2, err := ResumeCheckpoint(path, fp, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if len(r2.restored) != 6 {
		t.Fatalf("restored %d entries, want 6", len(r2.restored))
	}
	executions.Store(0)
	if _, err := Map(context.Background(), 6, 3, r2, func(i int) (int, error) {
		executions.Add(1)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 0 {
		t.Errorf("complete checkpoint still executed %d tasks", executions.Load())
	}
}

// TestMapTotalMismatch: a checkpoint sized for a different task count is
// rejected before any work runs.
func TestMapTotalMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	c, err := CreateCheckpoint(path, "fp", 4, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = Map(context.Background(), 7, 1, c, func(i int) (int, error) {
		t.Errorf("task %d ran despite the mismatch", i)
		return 0, nil
	})
	if err == nil || !strings.Contains(err.Error(), "holds 4 tasks") {
		t.Fatalf("total mismatch not rejected: %v", err)
	}
}

// TestMapNilCheckpoint: a nil checkpoint runs every task, persists
// nothing, and still returns each value in its slot.
func TestMapNilCheckpoint(t *testing.T) {
	var executions atomic.Int64
	got, err := Map(context.Background(), 5, 2, nil, func(i int) (int, error) {
		executions.Add(1)
		return i + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 5 {
		t.Errorf("executed %d tasks, want 5", executions.Load())
	}
	for i, v := range got {
		if v != i+1 {
			t.Errorf("task %d value %d, want %d", i, v, i+1)
		}
	}
}

// sample is a pointer-typed task value, as the scenario and shift-study
// results are: resume decodes each stored value into a nil pointer.
type sample struct {
	Index int
	Value float64
	Tags  []string
}

func sampleOf(i int) *sample {
	return &sample{Index: i, Value: float64(i) / 7, Tags: []string{fmt.Sprint("task-", i)}}
}

// TestMapResumeMatchesUninterrupted: a run that fails part-way leaves a
// checkpoint of the tasks that completed; resuming it runs only the tasks
// the checkpoint lacks and returns exactly what an uninterrupted run does.
func TestMapResumeMatchesUninterrupted(t *testing.T) {
	const n, failAt = 12, 7
	want, err := Map(context.Background(), n, 2, nil, func(i int) (*sample, error) { return sampleOf(i), nil })
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ckpt.json")
	fp := Fingerprint("resume")
	c, err := CreateCheckpoint(path, fp, n, "")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var mu sync.Mutex
	completed := map[int]bool{}
	_, err = Map(context.Background(), n, 2, c, func(i int) (*sample, error) {
		if i == failAt {
			return nil, boom
		}
		mu.Lock()
		completed[i] = true
		mu.Unlock()
		return sampleOf(i), nil
	})
	c.Close()
	if !errors.Is(err, boom) {
		t.Fatalf("interrupted run: err = %v, want boom", err)
	}
	if len(completed) == 0 || len(completed) >= n-1 {
		t.Fatalf("interrupted run completed %d of %d tasks, want some but not all", len(completed), n)
	}

	r, err := ResumeCheckpoint(path, fp, n)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var called []int
	got, err := Map(context.Background(), n, 2, r, func(i int) (*sample, error) {
		mu.Lock()
		called = append(called, i)
		mu.Unlock()
		return sampleOf(i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed run differs from an uninterrupted one:\n%+v\n%+v", got, want)
	}
	sort.Ints(called)
	var missing []int
	for i := 0; i < n; i++ {
		if !completed[i] {
			missing = append(missing, i)
		}
	}
	if !reflect.DeepEqual(called, missing) {
		t.Errorf("resumed run called fn for %v, want exactly the tasks the checkpoint lacks %v", called, missing)
	}
}

// TestMapRestoreFailsBeforeWork: a stored value that does not decode into
// the task type fails with its task index before any task runs.
func TestMapRestoreFailsBeforeWork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	fp := Fingerprint("undecodable")
	c, err := CreateCheckpoint(path, fp, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(0, sampleOf(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(2, "not a sample"); err != nil {
		t.Fatal(err)
	}
	c.Close()

	r, err := ResumeCheckpoint(path, fp, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = Map(context.Background(), 4, 2, r, func(i int) (*sample, error) {
		t.Errorf("task %d ran despite the undecodable checkpoint", i)
		return sampleOf(i), nil
	})
	if err == nil || !strings.Contains(err.Error(), "restoring task 2") {
		t.Fatalf("undecodable value not rejected with its index: %v", err)
	}
}
