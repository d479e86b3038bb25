package montage

import "testing"

// benchGenerate measures building, calibrating and finalizing the
// workflow of spec, and reports the cost per task: flat ns/task across
// mosaic sizes means generation scales linearly.
func benchGenerate(b *testing.B, spec Spec) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spec.TaskCount()), "ns/task")
}

// The scaling series: 1 and 4 degrees are the paper's sizes (203 and
// 3,027 tasks); 20 degrees (about 66k tasks) is the largest mosaic the
// service accepts.
func BenchmarkGenerate1Deg(b *testing.B)  { benchGenerate(b, OneDegree()) }
func BenchmarkGenerate4Deg(b *testing.B)  { benchGenerate(b, FourDegree()) }
func BenchmarkGenerate8Deg(b *testing.B)  { benchGenerate(b, FromDegrees(8, 8)) }
func BenchmarkGenerate16Deg(b *testing.B) { benchGenerate(b, FromDegrees(16, 16)) }
func BenchmarkGenerate20Deg(b *testing.B) { benchGenerate(b, FromDegrees(20, 20)) }
