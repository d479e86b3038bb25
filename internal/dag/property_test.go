package dag

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// randomLayered builds a random layered DAG (the family Montage belongs
// to) from a seed: L levels of random width, each task consuming 1-3
// files produced by the previous level (or external inputs at level 1).
func randomLayered(seed int64) *Workflow {
	rng := rand.New(rand.NewSource(seed))
	w := New(fmt.Sprintf("rand-%d", seed))
	levels := 2 + rng.Intn(4)
	var prevOutputs []string

	// External inputs for level 1.
	nIn := 1 + rng.Intn(5)
	for i := 0; i < nIn; i++ {
		name := fmt.Sprintf("in-%d", i)
		w.AddFile(name, units.Bytes(1+rng.Intn(1000)), false)
		prevOutputs = append(prevOutputs, name)
	}

	taskN := 0
	for lv := 1; lv <= levels; lv++ {
		width := 1 + rng.Intn(5)
		last := lv == levels
		var outs []string
		for i := 0; i < width; i++ {
			nInputs := 1 + rng.Intn(3)
			if nInputs > len(prevOutputs) {
				nInputs = len(prevOutputs)
			}
			perm := rng.Perm(len(prevOutputs))[:nInputs]
			inputs := make([]string, nInputs)
			for j, p := range perm {
				inputs[j] = prevOutputs[p]
			}
			out := fmt.Sprintf("f-%d-%d", lv, i)
			w.AddFile(out, units.Bytes(1+rng.Intn(1000)), last)
			w.AddTask(fmt.Sprintf("t-%d", taskN), "r",
				units.Duration(1+rng.Intn(100)), inputs, []string{out})
			outs = append(outs, out)
			taskN++
		}
		prevOutputs = outs
	}
	// Any produced file that ended up unconsumed and is not an output
	// would fail Finalize; mark such files as outputs.
	for _, f := range w.files {
		if !f.External() && len(f.consumers) == 0 {
			f.Output = true
		}
	}
	if err := w.Finalize(); err != nil {
		panic(err)
	}
	return w
}

// Property: the topological order always respects parent-before-child.
func TestPropTopoOrderValid(t *testing.T) {
	f := func(seed int64) bool {
		w := randomLayered(seed)
		pos := make(map[TaskID]int)
		for i, id := range w.TopoOrder() {
			pos[id] = i
		}
		for _, task := range w.Tasks() {
			for _, p := range task.Parents() {
				if pos[p] >= pos[task.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: levels obey the paper's recurrence level = 1 + max(parents).
func TestPropLevelRecurrence(t *testing.T) {
	f := func(seed int64) bool {
		w := randomLayered(seed)
		for _, task := range w.Tasks() {
			want := 1
			for _, p := range task.Parents() {
				if lv := w.Task(p).Level() + 1; lv > want {
					want = lv
				}
			}
			if task.Level() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: parent/child edge sets are symmetric.
func TestPropEdgeSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		w := randomLayered(seed)
		for _, task := range w.Tasks() {
			for _, p := range task.Parents() {
				found := false
				for _, c := range w.Task(p).Children() {
					if c == task.ID {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: CriticalPath <= TotalRuntime, and CriticalPath >= the longest
// single task.
func TestPropCriticalPathBounds(t *testing.T) {
	f := func(seed int64) bool {
		w := randomLayered(seed)
		cp := w.CriticalPath()
		if cp > w.TotalRuntime() {
			return false
		}
		for _, task := range w.Tasks() {
			if task.Runtime > cp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Clone is observationally identical and independent.
func TestPropCloneEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		w := randomLayered(seed)
		c := w.Clone()
		if c.NumTasks() != w.NumTasks() || c.NumFiles() != w.NumFiles() {
			return false
		}
		if c.TotalRuntime() != w.TotalRuntime() || c.TotalFileBytes() != w.TotalFileBytes() {
			return false
		}
		if c.MaxLevel() != w.MaxLevel() || c.MaxParallelism() != w.MaxParallelism() {
			return false
		}
		// Scaling the clone must not disturb the original.
		before := w.TotalFileBytes()
		c.ScaleFileSizes(3)
		return w.TotalFileBytes() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: RescaleCCR hits its target for any positive desired ratio.
func TestPropRescaleCCRHitsTarget(t *testing.T) {
	b := units.Mbps(10)
	f := func(seed int64, k uint8) bool {
		w := randomLayered(seed)
		desired := 0.01 * float64(1+int(k)%500)
		scaled, err := w.RescaleCCR(desired, b)
		if err != nil {
			return false
		}
		got := scaled.CCR(b)
		diff := got - desired
		if diff < 0 {
			diff = -diff
		}
		// File sizes round to whole bytes, so allow a small relative error.
		return diff <= 0.02*desired+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the finalized file views equal a fresh sort of the file map
// and its filters, and a clone's views hold the clone's own files.
func TestPropFileViews(t *testing.T) {
	f := func(seed int64) bool {
		w := randomLayered(seed)
		return checkViews(w) == nil && checkCloneViews(w) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: MaxParallelism is at most the task count and at least 1.
func TestPropMaxParallelismBounds(t *testing.T) {
	f := func(seed int64) bool {
		w := randomLayered(seed)
		mp := w.MaxParallelism()
		return mp >= 1 && mp <= w.NumTasks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
