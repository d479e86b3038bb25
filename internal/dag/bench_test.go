package dag

import (
	"strconv"
	"testing"
)

// buildLayered builds and finalizes a synthetic layered workflow of n
// tasks (n a multiple of width): levels of width tasks, each reading two
// neighbouring files of the level above (external inputs at level 1) and
// writing one file; the last level's files are staged out.
func buildLayered(n, width int) (*Workflow, error) {
	w := New("layered-" + strconv.Itoa(n))
	prev := make([]string, width)
	for j := range prev {
		prev[j] = "in-" + strconv.Itoa(j)
		if _, err := w.AddFile(prev[j], 1, false); err != nil {
			return nil, err
		}
	}
	cur := make([]string, width)
	for i := 0; i < n; i += width {
		last := i+width >= n
		for j := range cur {
			cur[j] = "f-" + strconv.Itoa(i+j)
			if _, err := w.AddFile(cur[j], 1, last); err != nil {
				return nil, err
			}
			in := []string{prev[j], prev[(j+1)%width]}
			if _, err := w.AddTask("t-"+strconv.Itoa(i+j), "r", 1, in, cur[j:j+1]); err != nil {
				return nil, err
			}
		}
		prev, cur = cur, prev
	}
	return w, w.Finalize()
}

// benchBuild measures building and finalizing an n-task layered
// workflow and reports the cost per task: the paper's question of how a
// workflow of a million tasks fares, asked of the graph layer alone.
func benchBuild(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := buildLayered(n, 100); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/task")
}

func BenchmarkBuild1e3(b *testing.B) { benchBuild(b, 1_000) }
func BenchmarkBuild1e4(b *testing.B) { benchBuild(b, 10_000) }
func BenchmarkBuild1e5(b *testing.B) { benchBuild(b, 100_000) }
func BenchmarkBuild1e6(b *testing.B) { benchBuild(b, 1_000_000) }
