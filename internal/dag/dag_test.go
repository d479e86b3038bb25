package dag

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/units"
)

// buildPaperExample reproduces Figure 3 of the paper: seven tasks 0..6,
// files a..h, task 6 consuming three inputs.
//
//	a -> 0 -> b -> {1, 2}
//	1: b -> c -> 3 -> f'... simplified exactly as in the figure:
//	0(a->b); 1(b->c); 2(b->d); 3(c->e); 4(c->f); 5(d->g... )
//
// We use the figure's structure: 0 produces b from a; 1 and 2 consume b;
// 1 produces c consumed by 3 and 4; 2 produces d consumed by 5; tasks
// 3,4,5 produce e,f,h; task 6 consumes e,f,h and produces g. Outputs of
// the workflow are g and h (per the paper's narration).
func buildPaperExample(t *testing.T) *Workflow {
	t.Helper()
	w := New("fig3")
	mustFile := func(name string, size float64, out bool) {
		if _, err := w.AddFile(name, units.Bytes(size), out); err != nil {
			t.Fatalf("AddFile(%q): %v", name, err)
		}
	}
	mustTask := func(name string, rt float64, in, out []string) {
		if _, err := w.AddTask(name, "routine", units.Duration(rt), in, out); err != nil {
			t.Fatalf("AddTask(%q): %v", name, err)
		}
	}
	mustFile("a", 100, false)
	mustFile("b", 200, false)
	mustFile("c", 300, false)
	mustFile("d", 400, false)
	mustFile("e", 500, false)
	mustFile("f", 600, false)
	mustFile("h", 700, true)
	mustFile("g", 800, true)
	mustTask("t0", 10, []string{"a"}, []string{"b"})
	mustTask("t1", 20, []string{"b"}, []string{"c"})
	mustTask("t2", 30, []string{"b"}, []string{"d"})
	mustTask("t3", 40, []string{"c"}, []string{"e"})
	mustTask("t4", 50, []string{"c"}, []string{"f"})
	mustTask("t5", 60, []string{"d"}, []string{"h"})
	mustTask("t6", 70, []string{"e", "f", "h"}, []string{"g"})
	if err := w.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return w
}

func TestPaperExampleStructure(t *testing.T) {
	w := buildPaperExample(t)
	if got := w.NumTasks(); got != 7 {
		t.Fatalf("NumTasks = %d, want 7", got)
	}
	if got := w.NumFiles(); got != 8 {
		t.Fatalf("NumFiles = %d, want 8", got)
	}
	wantLevels := map[string]int{"t0": 1, "t1": 2, "t2": 2, "t3": 3, "t4": 3, "t5": 3, "t6": 4}
	for _, task := range w.Tasks() {
		if task.Level() != wantLevels[task.Name] {
			t.Errorf("level(%s) = %d, want %d", task.Name, task.Level(), wantLevels[task.Name])
		}
	}
	if got := w.MaxLevel(); got != 4 {
		t.Errorf("MaxLevel = %d, want 4", got)
	}
	if got := w.MaxParallelism(); got != 3 {
		t.Errorf("MaxParallelism = %d, want 3", got)
	}
}

func TestPaperExampleEdges(t *testing.T) {
	w := buildPaperExample(t)
	t6 := w.Task(6)
	if got := len(t6.Parents()); got != 3 {
		t.Fatalf("t6 parents = %d, want 3", got)
	}
	t0 := w.Task(0)
	if got := len(t0.Children()); got != 2 {
		t.Fatalf("t0 children = %d, want 2", got)
	}
	if got := len(t0.Parents()); got != 0 {
		t.Fatalf("t0 parents = %d, want 0", got)
	}
	b := w.File("b")
	if b.Producer != 0 {
		t.Errorf("producer(b) = %d, want 0", b.Producer)
	}
	if got := len(b.Consumers()); got != 2 {
		t.Errorf("consumers(b) = %d, want 2", got)
	}
}

func TestExternalAndOutputs(t *testing.T) {
	w := buildPaperExample(t)
	ins := w.ExternalInputs()
	if len(ins) != 1 || ins[0].Name != "a" {
		t.Fatalf("ExternalInputs = %v, want [a]", names(ins))
	}
	outs := w.OutputFiles()
	if len(outs) != 2 || outs[0].Name != "g" || outs[1].Name != "h" {
		t.Fatalf("OutputFiles = %v, want [g h]", names(outs))
	}
	if got := w.InputBytes(); got != 100 {
		t.Errorf("InputBytes = %d, want 100", got)
	}
	if got := w.OutputBytes(); got != 1500 {
		t.Errorf("OutputBytes = %d, want 1500", got)
	}
}

func names(fs []*File) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	w := buildPaperExample(t)
	pos := make(map[TaskID]int)
	for i, id := range w.TopoOrder() {
		pos[id] = i
	}
	if len(pos) != w.NumTasks() {
		t.Fatalf("topo order has %d entries, want %d", len(pos), w.NumTasks())
	}
	for _, task := range w.Tasks() {
		for _, p := range task.Parents() {
			if pos[p] >= pos[task.ID] {
				t.Errorf("parent %d not before task %d in topo order", p, task.ID)
			}
		}
	}
}

func TestAggregates(t *testing.T) {
	w := buildPaperExample(t)
	if got := w.TotalRuntime(); got != 280 {
		t.Errorf("TotalRuntime = %v, want 280", got)
	}
	if got := w.TotalFileBytes(); got != 3600 {
		t.Errorf("TotalFileBytes = %d, want 3600", got)
	}
	// Critical path: t0(10) -> t2(30) -> t5(60) -> t6(70) = 170.
	if got := w.CriticalPath(); got != 170 {
		t.Errorf("CriticalPath = %v, want 170", got)
	}
}

func TestCCR(t *testing.T) {
	w := buildPaperExample(t)
	b := units.Bandwidth(10) // 10 B/s
	// CCR = (3600/10)/280 = 360/280.
	want := 360.0 / 280.0
	if got := w.CCR(b); !closeTo(got, want) {
		t.Errorf("CCR = %v, want %v", got, want)
	}
	if got := w.CCR(0); got != 0 {
		t.Errorf("CCR at zero bandwidth = %v, want 0", got)
	}
}

func TestRescaleCCR(t *testing.T) {
	w := buildPaperExample(t)
	b := units.Bandwidth(10)
	scaled, err := w.RescaleCCR(2.0, b)
	if err != nil {
		t.Fatalf("RescaleCCR: %v", err)
	}
	if got := scaled.CCR(b); !closeTo(got, 2.0) {
		t.Errorf("scaled CCR = %v, want 2.0", got)
	}
	// The original must be untouched.
	if got := w.TotalFileBytes(); got != 3600 {
		t.Errorf("original TotalFileBytes changed to %d", got)
	}
	if !strings.Contains(scaled.Name, "ccr") {
		t.Errorf("scaled name %q should mention ccr", scaled.Name)
	}
	if _, err := w.RescaleCCR(0, b); err == nil {
		t.Error("RescaleCCR(0) should fail")
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}

func TestCycleDetection(t *testing.T) {
	w := New("cycle")
	w.AddFile("x", 1, false)
	w.AddFile("y", 1, true)
	if _, err := w.AddTask("t0", "r", 1, []string{"y"}, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddTask("t1", "r", 1, []string{"x"}, []string{"y"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(); err == nil {
		t.Fatal("Finalize should detect the cycle")
	}
}

func TestValidationErrors(t *testing.T) {
	w := New("v")
	if _, err := w.AddFile("", 1, false); err == nil {
		t.Error("empty file name accepted")
	}
	if _, err := w.AddFile("f", -1, false); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := w.AddFile("f", 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddFile("f", 2, false); err == nil {
		t.Error("duplicate file accepted")
	}
	if _, err := w.AddTask("", "r", 1, nil, nil); err == nil {
		t.Error("empty task name accepted")
	}
	if _, err := w.AddTask("t", "r", -1, nil, nil); err == nil {
		t.Error("negative runtime accepted")
	}
	if _, err := w.AddTask("t", "r", 1, []string{"missing"}, nil); err == nil {
		t.Error("unknown input accepted")
	}
	if _, err := w.AddTask("t", "r", 1, nil, []string{"missing"}); err == nil {
		t.Error("unknown output accepted")
	}
	if _, err := w.AddTask("t", "r", 1, []string{"f", "f"}, nil); err == nil {
		t.Error("duplicate input accepted")
	}
	if _, err := w.AddTask("t", "r", 1, nil, []string{"f"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddTask("t", "r", 1, nil, nil); err == nil {
		t.Error("duplicate task name accepted")
	}
	if _, err := w.AddTask("t2", "r", 1, nil, []string{"f"}); err == nil {
		t.Error("second producer accepted")
	}
}

func TestDanglingFileRejected(t *testing.T) {
	w := New("dangling")
	w.AddFile("in", 1, false)
	w.AddFile("orphan", 1, false) // produced, never consumed, not output
	if _, err := w.AddTask("t0", "r", 1, []string{"in"}, []string{"orphan"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(); err == nil {
		t.Fatal("Finalize should reject a produced-but-unused file")
	}
}

func TestEmptyWorkflowRejected(t *testing.T) {
	w := New("empty")
	if err := w.Finalize(); err == nil {
		t.Fatal("Finalize should reject an empty workflow")
	}
}

func TestMutationAfterFinalizeRejected(t *testing.T) {
	w := buildPaperExample(t)
	if _, err := w.AddFile("new", 1, false); err == nil {
		t.Error("AddFile after Finalize accepted")
	}
	if _, err := w.AddTask("new", "r", 1, nil, nil); err == nil {
		t.Error("AddTask after Finalize accepted")
	}
	if err := w.Finalize(); err != nil {
		t.Errorf("second Finalize should be a no-op, got %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	w := buildPaperExample(t)
	c := w.Clone()
	if !c.Finalized() {
		t.Fatal("clone lost finalized state")
	}
	c.File("a").Size = 9999
	if w.File("a").Size != 100 {
		t.Error("mutating clone file changed original")
	}
	if c.NumTasks() != w.NumTasks() || c.MaxLevel() != w.MaxLevel() {
		t.Error("clone structure differs from original")
	}
	if got, want := len(c.TopoOrder()), len(w.TopoOrder()); got != want {
		t.Errorf("clone topo order length %d, want %d", got, want)
	}
}

func TestScaleFileSizes(t *testing.T) {
	w := buildPaperExample(t)
	c := w.Clone()
	if err := c.ScaleFileSizes(2); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalFileBytes(); got != 7200 {
		t.Errorf("scaled TotalFileBytes = %d, want 7200", got)
	}
	if err := c.ScaleFileSizes(-1); err == nil {
		t.Error("negative factor accepted")
	}
}

func TestTasksAtLevel(t *testing.T) {
	w := buildPaperExample(t)
	lv3 := w.TasksAtLevel(3)
	if len(lv3) != 3 {
		t.Fatalf("level 3 has %d tasks, want 3", len(lv3))
	}
	if len(w.TasksAtLevel(99)) != 0 {
		t.Error("nonexistent level should be empty")
	}
}

// A rejected AddTask must leave no trace: the unknown second output used
// to be found only after the first input had gained a consumer and the
// first output a producer, so a later valid producer of "b" was refused.
func TestAddTaskAtomicOnError(t *testing.T) {
	w := New("atomic")
	for _, name := range []string{"a", "b"} {
		if _, err := w.AddFile(name, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.AddTask("bad", "r", 1, []string{"a"}, []string{"b", "missing"}); err == nil {
		t.Fatal("task writing an unknown file accepted")
	}
	if w.NumTasks() != 0 {
		t.Fatalf("rejected task left %d tasks", w.NumTasks())
	}
	if got := w.File("a").Consumers(); len(got) != 0 {
		t.Errorf("rejected task left a.consumers = %v", got)
	}
	if got := w.File("b").Producer; got != NoTask {
		t.Errorf("rejected task left b.Producer = %d", got)
	}
	if _, err := w.AddTask("bad", "r", 1, []string{"a"}, []string{"b"}); err != nil {
		t.Fatalf("valid task after a rejected one: %v", err)
	}
	w.File("b").Output = true
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// checkViews asserts Files, ExternalInputs and OutputFiles of a
// finalized workflow equal a fresh sort of its file map and the filters
// of that sort.
func checkViews(w *Workflow) error {
	want := sortedFiles(w.files)
	if got := w.Files(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Files = %v, want %v", names(got), names(want))
	}
	var ext, out []*File
	for _, f := range want {
		if f.External() {
			ext = append(ext, f)
		}
		if f.Output {
			out = append(out, f)
		}
	}
	if got := w.ExternalInputs(); !reflect.DeepEqual(got, ext) {
		return fmt.Errorf("ExternalInputs = %v, want %v", names(got), names(ext))
	}
	if got := w.OutputFiles(); !reflect.DeepEqual(got, out) {
		return fmt.Errorf("OutputFiles = %v, want %v", names(got), names(out))
	}
	return nil
}

// checkCloneViews asserts a clone's views hold the clone's own File
// objects: scaling the clone leaves every size the original reports
// unchanged.
func checkCloneViews(w *Workflow) error {
	c := w.Clone()
	if err := checkViews(c); err != nil {
		return fmt.Errorf("clone: %w", err)
	}
	for i, f := range c.Files() {
		if f != c.File(f.Name) || f == w.Files()[i] {
			return fmt.Errorf("clone view file %q is not the clone's own copy", f.Name)
		}
	}
	before := make([]int64, w.NumFiles())
	for i, f := range w.Files() {
		before[i] = int64(f.Size)
	}
	if err := c.ScaleFileSizes(3); err != nil {
		return err
	}
	for i, f := range w.Files() {
		if int64(f.Size) != before[i] {
			return fmt.Errorf("scaling the clone changed the original's %q", f.Name)
		}
	}
	return nil
}

func TestFinalizedViews(t *testing.T) {
	w := buildPaperExample(t)
	if err := checkViews(w); err != nil {
		t.Fatal(err)
	}
	if err := checkCloneViews(w); err != nil {
		t.Fatal(err)
	}
	if w.taskIDs != nil {
		t.Error("Finalize kept the task-name index")
	}
}

// A clone of an unfinalized workflow keeps rejecting duplicate task
// names, and adding to it leaves the original alone.
func TestCloneUnfinalizedKeepsNameIndex(t *testing.T) {
	w := New("partial")
	for _, name := range []string{"a", "b", "c"} {
		if _, err := w.AddFile(name, 1, name == "c"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.AddTask("t0", "r", 1, []string{"a"}, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	c := w.Clone()
	if _, err := c.AddTask("t0", "r", 1, []string{"b"}, []string{"c"}); err == nil {
		t.Fatal("clone accepted a duplicate task name")
	}
	if _, err := c.AddTask("t1", "r", 1, []string{"b"}, []string{"c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddTask("t1", "r", 1, []string{"b"}, []string{"c"}); err != nil {
		t.Fatalf("original saw the clone's task: %v", err)
	}
	for _, wf := range []*Workflow{w, c} {
		if err := wf.Finalize(); err != nil {
			t.Fatal(err)
		}
		if err := checkViews(wf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBuildLayered(t *testing.T) {
	w, err := buildLayered(1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumTasks() != 1000 || w.MaxLevel() != 10 || w.MaxParallelism() != 100 {
		t.Errorf("tasks %d, levels %d, width %d; want 1000, 10, 100", w.NumTasks(), w.MaxLevel(), w.MaxParallelism())
	}
	if err := checkViews(w); err != nil {
		t.Fatal(err)
	}
}
