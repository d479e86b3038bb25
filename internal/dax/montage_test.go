package dax

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/montage"
)

// TestMontagePresetsRoundTrip serializes each paper workload and parses
// it back, checking that every simulation-relevant quantity survives.
func TestMontagePresetsRoundTrip(t *testing.T) {
	for _, spec := range montage.Presets() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			w, err := montage.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, w); err != nil {
				t.Fatal(err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumTasks() != w.NumTasks() || got.NumFiles() != w.NumFiles() {
				t.Fatalf("shape: %d/%d tasks, %d/%d files",
					got.NumTasks(), w.NumTasks(), got.NumFiles(), w.NumFiles())
			}
			if got.TotalRuntime() != w.TotalRuntime() {
				t.Errorf("TotalRuntime %v != %v", got.TotalRuntime(), w.TotalRuntime())
			}
			if got.TotalFileBytes() != w.TotalFileBytes() {
				t.Errorf("TotalFileBytes %d != %d", got.TotalFileBytes(), w.TotalFileBytes())
			}
			if got.InputBytes() != w.InputBytes() || got.OutputBytes() != w.OutputBytes() {
				t.Error("external input/output volumes changed")
			}
			if got.MaxLevel() != w.MaxLevel() || got.MaxParallelism() != w.MaxParallelism() {
				t.Error("level structure changed")
			}
			if got.CriticalPath() != w.CriticalPath() {
				t.Errorf("CriticalPath %v != %v", got.CriticalPath(), w.CriticalPath())
			}
			// Per-task spot checks.
			for _, id := range []int{0, w.NumTasks() / 2, w.NumTasks() - 1} {
				a, b := w.Tasks()[id], got.Tasks()[id]
				if a.Name != b.Name || a.Type != b.Type || a.Runtime != b.Runtime {
					t.Errorf("task %d changed: %+v vs %+v", id, a, b)
				}
			}
		})
	}
}

// TestWriteStableAcrossGenerations confirms the serialized form is
// byte-identical for identically-specified workflows (regression guard
// for determinism end to end).
func TestWriteStableAcrossGenerations(t *testing.T) {
	spec := montage.OneDegree()
	w1, err := montage.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := montage.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := Write(&b1, w1); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, w2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("identical specs produced different DAX documents")
	}
}

// TestWriteConcurrentOnCachedWorkflow writes one memoized workflow from
// several goroutines at once.  A memoized workflow is shared, so Write
// must only read it; run under -race this catches any write to the
// workflow's file views.
func TestWriteConcurrentOnCachedWorkflow(t *testing.T) {
	w, err := montage.Cached(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := Write(&want, w); err != nil {
		t.Fatal(err)
	}
	const writers = 4
	out := make([]bytes.Buffer, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = Write(&out[i], w)
		}(i)
	}
	wg.Wait()
	for i := range out {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if !bytes.Equal(out[i].Bytes(), want.Bytes()) {
			t.Errorf("writer %d produced a different document", i)
		}
	}
}
