package montage

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestCacheReturnsSameWorkflow(t *testing.T) {
	var c Cache
	a, err := c.Generate(OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Generate(OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical specs produced distinct workflows")
	}
	other, err := c.Generate(TwoDegree())
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Error("distinct specs shared one workflow")
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}
}

func TestCacheMatchesGenerate(t *testing.T) {
	spec := OneDegree()
	cached, err := Cached(spec)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached.NumTasks() != fresh.NumTasks() || cached.NumFiles() != fresh.NumFiles() {
		t.Errorf("cached %d tasks/%d files vs fresh %d/%d",
			cached.NumTasks(), cached.NumFiles(), fresh.NumTasks(), fresh.NumFiles())
	}
	if cached.TotalRuntime() != fresh.TotalRuntime() {
		t.Errorf("cached runtime %v vs fresh %v", cached.TotalRuntime(), fresh.TotalRuntime())
	}
	if cached.TotalFileBytes() != fresh.TotalFileBytes() {
		t.Errorf("cached bytes %v vs fresh %v", cached.TotalFileBytes(), fresh.TotalFileBytes())
	}
}

func TestCacheConcurrentSingleGeneration(t *testing.T) {
	var c Cache
	const goroutines = 16
	out := make([]interface{ NumTasks() int }, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			w, err := c.Generate(OneDegree())
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = w
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if out[i] != out[0] {
			t.Fatalf("goroutine %d got a different workflow", i)
		}
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	one, two, four := OneDegree(), TwoDegree(), FourDegree()
	mustGen := func(s Spec) {
		t.Helper()
		if _, err := c.Generate(s); err != nil {
			t.Fatal(err)
		}
	}
	mustGen(one)
	mustGen(two)
	mustGen(one) // touch: one is now more recently used than two
	mustGen(four)
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// two was least recently used, so it must be the evicted one: asking
	// for one and four again is all hits, asking for two regenerates.
	before := c.Stats()
	mustGen(one)
	mustGen(four)
	if got := c.Stats(); got.Misses != before.Misses {
		t.Errorf("resident entries missed: misses %d -> %d", before.Misses, got.Misses)
	}
	mustGen(two)
	if got := c.Stats(); got.Misses != before.Misses+1 {
		t.Errorf("evicted entry not regenerated: misses %d -> %d", before.Misses, got.Misses)
	}
	if got := c.Stats(); got.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", got.Evictions)
	}
}

func TestCacheStats(t *testing.T) {
	var c Cache // unbounded
	if _, err := c.Generate(OneDegree()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Generate(OneDegree()); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Evictions != 0 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 3 hits / 1 miss / 0 evictions / 1 entry", st)
	}
}

func TestCacheInvalidSpec(t *testing.T) {
	var c Cache
	bad := OneDegree()
	bad.Images = 0
	if _, err := c.Generate(bad); err == nil {
		t.Fatal("invalid spec accepted")
	}
	// The error is memoized too: same spec, same answer.
	if _, err := c.Generate(bad); err == nil {
		t.Fatal("invalid spec accepted on second lookup")
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// n-th call on, so a test can cancel a generation part way through
// without depending on timing.  A non-nil wait runs before the first
// cancellation is reported.
type cancelAfter struct {
	context.Context
	n    int
	wait func()

	mu    sync.Mutex
	calls int
}

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls < c.n {
		return nil
	}
	if c.calls == c.n && c.wait != nil {
		c.wait()
	}
	return context.Canceled
}

func TestGenerateContextCanceled(t *testing.T) {
	spec := FromDegrees(20, 20)
	ctx := &cancelAfter{Context: context.Background(), n: 3}
	if _, err := GenerateContext(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Checks come every ctxCheckEvery tasks, so the generation stopped
	// after its third, long before the 73k-task mosaic was built.
	if ctx.calls != 3 {
		t.Errorf("ctx checked %d times, want 3", ctx.calls)
	}
}

// A canceled generation is not memoized: the next caller with a live
// context regenerates and gets the workflow.
func TestCacheDoesNotMemoizeCancellation(t *testing.T) {
	c := NewCache(4)
	spec := FromDegrees(20, 20)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := c.GenerateContext(canceled, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("canceled generation took %v", d)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("canceled generation memoized: %d entries", n)
	}
	wf, err := c.GenerateContext(context.Background(), spec)
	if err != nil {
		t.Fatalf("live call after a canceled one: %v", err)
	}
	if wf.NumTasks() != spec.TaskCount() {
		t.Errorf("got %d tasks, want %d", wf.NumTasks(), spec.TaskCount())
	}
	if again, _ := c.Generate(spec); again != wf || c.Len() != 1 {
		t.Error("successful generation not memoized")
	}
}

// A caller whose context is live never inherits a cancellation from a
// concurrent caller sharing its generation: it regenerates instead.
func TestCacheLiveCallerSurvivesSharedCancellation(t *testing.T) {
	c := NewCache(4)
	spec := FourDegree()
	// The doomed generation is canceled only once the live caller has
	// found its entry and is waiting on it.
	doomed := &cancelAfter{Context: context.Background(), n: 2, wait: func() {
		for c.Stats().Hits == 0 {
			time.Sleep(time.Millisecond)
		}
	}}
	done := make(chan error, 1)
	go func() {
		_, err := c.GenerateContext(doomed, spec)
		done <- err
	}()
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	wf, err := c.GenerateContext(context.Background(), spec)
	if err != nil {
		t.Fatalf("live caller: %v", err)
	}
	if wf.NumTasks() != spec.TaskCount() {
		t.Errorf("got %d tasks, want %d", wf.NumTasks(), spec.TaskCount())
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("doomed caller: err = %v, want context.Canceled", err)
	}
}
