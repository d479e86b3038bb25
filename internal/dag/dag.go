// Package dag models a scientific workflow as a directed acyclic graph of
// tasks connected by data dependencies, the representation the paper's
// simulator consumes (an adjacency list parsed from Montage's XML DAG
// description, with file sizes and task runtimes attached).
//
// A Workflow owns two kinds of vertices:
//
//   - Task: one invocation of a routine (e.g. mProject) with a runtime on
//     a reference CPU, a set of input files and a set of output files.
//   - File: a named, sized data item.  A file has at most one producer
//     task; files with no producer are the workflow's external inputs
//     (staged in from the user), and files marked as outputs are staged
//     back out to the user at the end.
//
// Task-to-task edges are implied by files: t1 -> t2 whenever an output of
// t1 is an input of t2.  Levels follow the paper's definition: tasks with
// no data-dependence are level 1, and every other task is one plus the
// maximum level of its parents.
package dag

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/units"
)

// TaskID identifies a task within a workflow.
type TaskID int

// File is a data item used or produced by the workflow.
type File struct {
	Name     string      // unique within the workflow
	Size     units.Bytes // size in bytes
	Producer TaskID      // task that writes it, or NoTask for external inputs
	Output   bool        // true if the file must be staged out to the user

	consumers []TaskID // tasks that read the file, sorted by ID
}

// NoTask marks a file with no producing task (an external input).
const NoTask TaskID = -1

// Consumers returns the IDs of the tasks that read the file, in ID order.
// The returned slice is owned by the workflow and must not be modified.
func (f *File) Consumers() []TaskID { return f.consumers }

// External reports whether the file comes from outside the workflow and
// must be transferred in from the user before any consumer can run.
func (f *File) External() bool { return f.Producer == NoTask }

// Task is one vertex of the workflow graph.
type Task struct {
	ID      TaskID
	Name    string         // unique within the workflow
	Type    string         // routine name, e.g. "mProject"
	Runtime units.Duration // runtime on the reference CPU

	Inputs  []string // names of files read
	Outputs []string // names of files written

	parents  []TaskID
	children []TaskID
	level    int
}

// Parents returns the IDs of tasks this task depends on, in ID order.
func (t *Task) Parents() []TaskID { return t.parents }

// Children returns the IDs of tasks that depend on this task, in ID order.
func (t *Task) Children() []TaskID { return t.children }

// Level returns the task's level per the paper's definition (roots are 1).
func (t *Task) Level() int { return t.level }

// Workflow is an immutable-after-Finalize DAG of tasks and files.
type Workflow struct {
	Name  string
	tasks []*Task
	files map[string]*File
	// taskIDs indexes tasks by name for AddTask's duplicate check.  It is
	// a build-time structure: Finalize drops it, so a memoized workflow
	// does not carry it.
	taskIDs map[string]TaskID

	finalized bool
	order     []TaskID // topological order, computed by Finalize
	maxLevel  int

	// Name-sorted file views, built once by Finalize and read-only after.
	sorted   []*File
	external []*File
	outputs  []*File
}

// New returns an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{Name: name, files: make(map[string]*File), taskIDs: make(map[string]TaskID)}
}

// AddFile registers a file.  Size must be non-negative and the name
// unique.  Producer links are established by AddTask.
func (w *Workflow) AddFile(name string, size units.Bytes, output bool) (*File, error) {
	if w.finalized {
		return nil, errors.New("dag: workflow already finalized")
	}
	if name == "" {
		return nil, errors.New("dag: empty file name")
	}
	if size < 0 {
		return nil, fmt.Errorf("dag: file %q has negative size %d", name, size)
	}
	if _, dup := w.files[name]; dup {
		return nil, fmt.Errorf("dag: duplicate file %q", name)
	}
	f := &File{Name: name, Size: size, Producer: NoTask, Output: output}
	w.files[name] = f
	return f, nil
}

// AddTask registers a task reading the named input files and writing the
// named output files.  All files must already exist, and each output file
// must not already have a producer.  A rejected task leaves the workflow
// unchanged.
func (w *Workflow) AddTask(name, typ string, runtime units.Duration, inputs, outputs []string) (*Task, error) {
	if w.finalized {
		return nil, errors.New("dag: workflow already finalized")
	}
	if name == "" {
		return nil, errors.New("dag: empty task name")
	}
	if runtime < 0 {
		return nil, fmt.Errorf("dag: task %q has negative runtime %v", name, runtime)
	}
	if _, dup := w.taskIDs[name]; dup {
		return nil, fmt.Errorf("dag: duplicate task %q", name)
	}
	// Validate every input and output before touching any file, so a
	// rejected task leaves no consumer or producer link behind.
	var buf [8]*File
	used := buf[:0]
	seen := make(map[string]bool, len(inputs)+len(outputs))
	for _, in := range inputs {
		f, ok := w.files[in]
		if !ok {
			return nil, fmt.Errorf("dag: task %q reads unknown file %q", name, in)
		}
		if seen[in] {
			return nil, fmt.Errorf("dag: task %q lists file %q twice", name, in)
		}
		seen[in] = true
		used = append(used, f)
	}
	for _, out := range outputs {
		f, ok := w.files[out]
		if !ok {
			return nil, fmt.Errorf("dag: task %q writes unknown file %q", name, out)
		}
		if seen[out] {
			return nil, fmt.Errorf("dag: task %q lists file %q twice", name, out)
		}
		seen[out] = true
		if f.Producer != NoTask {
			return nil, fmt.Errorf("dag: file %q produced by two tasks", out)
		}
		used = append(used, f)
	}
	id := TaskID(len(w.tasks))
	for _, f := range used[:len(inputs)] {
		f.consumers = append(f.consumers, id)
	}
	for _, f := range used[len(inputs):] {
		f.Producer = id
	}
	t := &Task{
		ID: id, Name: name, Type: typ, Runtime: runtime,
		Inputs: append([]string(nil), inputs...), Outputs: append([]string(nil), outputs...),
	}
	w.tasks = append(w.tasks, t)
	w.taskIDs[name] = id
	return t, nil
}

// Finalize validates the graph, derives task-to-task edges, computes a
// topological order and per-task levels, builds the name-sorted file
// views, and freezes the workflow.  The views are built here, not on
// first use, because a finalized workflow is shared across goroutines.
func (w *Workflow) Finalize() error {
	if w.finalized {
		return nil
	}
	if len(w.tasks) == 0 {
		return errors.New("dag: workflow has no tasks")
	}
	// Derive parent/child edges from file producer/consumer relations,
	// walking each file's consumers rather than looking every task input
	// up by name.
	sorted := sortedFiles(w.files)
	for _, t := range w.tasks {
		t.parents = t.parents[:0]
	}
	for _, f := range sorted {
		if f.Producer == NoTask {
			continue
		}
		for _, c := range f.consumers {
			w.tasks[c].parents = append(w.tasks[c].parents, f.Producer)
		}
	}
	for _, t := range w.tasks {
		slices.Sort(t.parents)
		t.parents = slices.Compact(t.parents)
	}
	// Visiting children in ID order leaves every children list sorted.
	for _, t := range w.tasks {
		for _, p := range t.parents {
			w.tasks[p].children = append(w.tasks[p].children, t.ID)
		}
	}

	// Kahn's algorithm for a deterministic topological order (smallest ID
	// first among ready tasks) and cycle detection.
	indeg := make([]int, len(w.tasks))
	for _, t := range w.tasks {
		indeg[t.ID] = len(t.parents)
	}
	ready := &idHeap{}
	for _, t := range w.tasks {
		if indeg[t.ID] == 0 {
			ready.push(t.ID)
		}
	}
	w.order = w.order[:0]
	for ready.len() > 0 {
		id := ready.pop()
		w.order = append(w.order, id)
		for _, c := range w.tasks[id].children {
			indeg[c]--
			if indeg[c] == 0 {
				ready.push(c)
			}
		}
	}
	if len(w.order) != len(w.tasks) {
		return errors.New("dag: workflow contains a cycle")
	}

	// Levels per the paper: roots are level 1; otherwise 1 + max parent.
	w.maxLevel = 0
	for _, id := range w.order {
		t := w.tasks[id]
		t.level = 1
		for _, p := range t.parents {
			if lv := w.tasks[p].level + 1; lv > t.level {
				t.level = lv
			}
		}
		if t.level > w.maxLevel {
			w.maxLevel = t.level
		}
	}

	// Every non-external file must be consumed or be a declared output;
	// dangling files are almost always a generator bug.  Walking the
	// name-sorted files makes the error name the same file on every run
	// regardless of map iteration order.
	for _, f := range sorted {
		if !f.External() && len(f.consumers) == 0 && !f.Output {
			return fmt.Errorf("dag: file %q is produced but never consumed nor staged out", f.Name)
		}
	}
	w.setViews(sorted)
	w.taskIDs = nil
	w.finalized = true
	return nil
}

// setViews installs sorted as the workflow's name-sorted file view and
// derives the external-input and output views from it.
func (w *Workflow) setViews(sorted []*File) {
	w.sorted = sorted
	w.external = filterFiles(sorted, (*File).External)
	w.outputs = filterFiles(sorted, func(f *File) bool { return f.Output })
}

// sortedFiles returns the files of m sorted by name.
func sortedFiles(m map[string]*File) []*File {
	out := make([]*File, 0, len(m))
	for _, f := range m {
		out = append(out, f)
	}
	slices.SortFunc(out, func(a, b *File) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// filterFiles returns the files that satisfy keep, in their given order.
func filterFiles(files []*File, keep func(*File) bool) []*File {
	var out []*File
	for _, f := range files {
		if keep(f) {
			out = append(out, f)
		}
	}
	return out
}

// Finalized reports whether Finalize has completed successfully.
func (w *Workflow) Finalized() bool { return w.finalized }

// NumTasks returns the number of tasks.
func (w *Workflow) NumTasks() int { return len(w.tasks) }

// NumFiles returns the number of files.
func (w *Workflow) NumFiles() int { return len(w.files) }

// Task returns the task with the given ID.
func (w *Workflow) Task(id TaskID) *Task { return w.tasks[id] }

// Tasks returns all tasks in ID order. The slice is owned by the workflow.
func (w *Workflow) Tasks() []*Task { return w.tasks }

// File returns the named file, or nil if it does not exist.
func (w *Workflow) File(name string) *File { return w.files[name] }

// Files returns all files sorted by name.  After Finalize the slice is
// the one Finalize built: it is owned by the workflow, shared by every
// caller, and must not be modified.
func (w *Workflow) Files() []*File {
	if w.finalized {
		return w.sorted
	}
	return sortedFiles(w.files)
}

// TopoOrder returns a deterministic topological order of task IDs.
// Finalize must have been called.
func (w *Workflow) TopoOrder() []TaskID { return w.order }

// MaxLevel returns the number of levels in the workflow.
func (w *Workflow) MaxLevel() int { return w.maxLevel }

// TasksAtLevel returns the tasks at the given level, in ID order.
func (w *Workflow) TasksAtLevel(level int) []*Task {
	var out []*Task
	for _, t := range w.tasks {
		if t.level == level {
			out = append(out, t)
		}
	}
	return out
}

// ExternalInputs returns the files that must be staged in from the user,
// sorted by name.  Like Files, the slice is owned by the workflow and
// must not be modified.
func (w *Workflow) ExternalInputs() []*File {
	if w.finalized {
		return w.external
	}
	return filterFiles(w.Files(), (*File).External)
}

// OutputFiles returns the files staged back to the user, sorted by name.
// Like Files, the slice is owned by the workflow and must not be
// modified.
func (w *Workflow) OutputFiles() []*File {
	if w.finalized {
		return w.outputs
	}
	return filterFiles(w.Files(), func(f *File) bool { return f.Output })
}

// TotalRuntime returns the sum of all task runtimes: the total CPU time
// consumed on the reference CPU (the paper's CPU-hours follow from this).
func (w *Workflow) TotalRuntime() units.Duration {
	var sum units.Duration
	for _, t := range w.tasks {
		sum += t.Runtime
	}
	return sum
}

// TotalFileBytes returns the sum of the sizes of every file used or
// produced by the workflow: the numerator of the paper's CCR formula.
func (w *Workflow) TotalFileBytes() units.Bytes {
	var sum units.Bytes
	for _, f := range w.files {
		sum += f.Size
	}
	return sum
}

// InputBytes returns the total size of external input files.
func (w *Workflow) InputBytes() units.Bytes {
	var sum units.Bytes
	for _, f := range w.files {
		if f.External() {
			sum += f.Size
		}
	}
	return sum
}

// OutputBytes returns the total size of files staged out to the user.
func (w *Workflow) OutputBytes() units.Bytes {
	var sum units.Bytes
	for _, f := range w.files {
		if f.Output {
			sum += f.Size
		}
	}
	return sum
}

// MaxParallelism returns the width of the widest level: an upper bound on
// the number of processors the workflow can use at once when tasks within
// a level are independent (true for Montage).
func (w *Workflow) MaxParallelism() int {
	counts := make(map[int]int)
	for _, t := range w.tasks {
		counts[t.level]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return max
}

// CriticalPath returns the length of the longest runtime-weighted path
// through the DAG: a lower bound on makespan with unlimited processors
// (data transfer excluded).
func (w *Workflow) CriticalPath() units.Duration {
	finish := make([]units.Duration, len(w.tasks))
	var best units.Duration
	for _, id := range w.order {
		t := w.tasks[id]
		var start units.Duration
		for _, p := range t.parents {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[id] = start + t.Runtime
		if finish[id] > best {
			best = finish[id]
		}
	}
	return best
}

// UpwardRanks returns each task's runtime-weighted bottom level: its own
// runtime plus the longest runtime path through its descendants.  Tasks
// with the largest rank head the critical path; a mixed-fleet scheduler
// uses the ranks to place critical-path work on reliable capacity.
func (w *Workflow) UpwardRanks() []units.Duration {
	rank := make([]units.Duration, len(w.tasks))
	for i := len(w.order) - 1; i >= 0; i-- {
		t := w.tasks[w.order[i]]
		var below units.Duration
		for _, c := range t.children {
			if rank[c] > below {
				below = rank[c]
			}
		}
		rank[t.ID] = t.Runtime + below
	}
	return rank
}

// ScaleFileSizes multiplies every file size by factor, the operation the
// paper uses to sweep the communication-to-computation ratio ("we multiply
// each file size by CCRd/CCRr").  It may only be called before Finalize
// or on a finalized workflow via Clone-and-scale in package montage.
func (w *Workflow) ScaleFileSizes(factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("dag: non-positive scale factor %v", factor)
	}
	for _, f := range w.files {
		f.Size = units.BytesOf(float64(f.Size) * factor)
	}
	return nil
}

// Clone returns a deep copy of the workflow.  The copy preserves
// finalization state, orders and levels; its file views and task-name
// index refer to its own copies.
func (w *Workflow) Clone() *Workflow {
	c := New(w.Name)
	for name, f := range w.files {
		nf := *f
		nf.consumers = append([]TaskID(nil), f.consumers...)
		c.files[name] = &nf
	}
	c.tasks = make([]*Task, len(w.tasks))
	for i, t := range w.tasks {
		nt := *t
		nt.Inputs = append([]string(nil), t.Inputs...)
		nt.Outputs = append([]string(nil), t.Outputs...)
		nt.parents = append([]TaskID(nil), t.parents...)
		nt.children = append([]TaskID(nil), t.children...)
		c.tasks[i] = &nt
	}
	c.finalized = w.finalized
	c.order = append([]TaskID(nil), w.order...)
	c.maxLevel = w.maxLevel
	if w.finalized {
		c.taskIDs = nil
		sorted := make([]*File, len(w.sorted))
		for i, f := range w.sorted {
			sorted[i] = c.files[f.Name]
		}
		c.setViews(sorted)
	} else {
		maps.Copy(c.taskIDs, w.taskIDs)
	}
	return c
}

// idHeap is a tiny min-heap of TaskIDs used for deterministic Kahn order.
type idHeap struct{ ids []TaskID }

func (h *idHeap) len() int { return len(h.ids) }

func (h *idHeap) push(id TaskID) {
	h.ids = append(h.ids, id)
	i := len(h.ids) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.ids[p] <= h.ids[i] {
			break
		}
		h.ids[p], h.ids[i] = h.ids[i], h.ids[p]
		i = p
	}
}

func (h *idHeap) pop() TaskID {
	top := h.ids[0]
	last := len(h.ids) - 1
	h.ids[0] = h.ids[last]
	h.ids = h.ids[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.ids) && h.ids[l] < h.ids[small] {
			small = l
		}
		if r < len(h.ids) && h.ids[r] < h.ids[small] {
			small = r
		}
		if small == i {
			break
		}
		h.ids[i], h.ids[small] = h.ids[small], h.ids[i]
		i = small
	}
	return top
}
