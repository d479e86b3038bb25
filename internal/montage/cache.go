package montage

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/dag"
)

// Cache memoizes Generate by Spec.  Generation is deterministic, so two
// identical specs always describe the same workflow; the experiment grid
// re-asks for the same presets dozens of times, and regenerating a
// 3,027-task DAG per grid point is pure waste.
//
// A positive Limit bounds the memo: once more than Limit distinct specs
// have been generated, the least-recently-used workflow is evicted.  A
// long-running server fielding arbitrary mosaic sizes needs the bound
// (every distinct spec pins a multi-thousand-task DAG) and the Stats
// surface to report cache behaviour; the process-wide preset memo stays
// unbounded (Limit 0).
//
// The cached *dag.Workflow is shared between callers and MUST be treated
// as read-only (a finalized workflow already is for every simulation
// path; clone before mutating, as RescaleCCR does).
type Cache struct {
	// Limit bounds the number of memoized specs; <= 0 means unbounded.
	Limit int

	mu      sync.Mutex
	entries map[Spec]*cacheEntry
	order   *list.List // of Spec; front = most recently used
	hits    uint64
	misses  uint64
	evicted uint64
}

type cacheEntry struct {
	once sync.Once
	elem *list.Element
	wf   *dag.Workflow
	err  error
}

// CacheStats is a snapshot of a cache's behaviour.
type CacheStats struct {
	Hits      uint64 // lookups that found a memoized entry
	Misses    uint64 // lookups that triggered a generation
	Evictions uint64 // entries dropped to respect Limit
	Entries   int    // specs currently memoized
}

// NewCache returns a cache bounded to at most limit memoized specs
// (<= 0 means unbounded).
func NewCache(limit int) *Cache { return &Cache{Limit: limit} }

// Generate returns the memoized workflow for s, generating it on first
// use.  Concurrent callers with the same spec share one generation.
func (c *Cache) Generate(s Spec) (*dag.Workflow, error) {
	return c.GenerateContext(context.Background(), s)
}

// GenerateContext is Generate whose generation gives up once ctx is
// done.  A generation ended by cancellation is never memoized: its
// entry is evicted so the next caller regenerates, and a caller sharing
// it whose own ctx is still live retries rather than inherit another
// caller's cancellation.
func (c *Cache) GenerateContext(ctx context.Context, s Spec) (*dag.Workflow, error) {
	for {
		e := c.entry(s)
		// An entry evicted while its generation is still running stays
		// valid for the callers already holding it; it is merely no
		// longer shared with future lookups.
		e.once.Do(func() { e.wf, e.err = GenerateContext(ctx, s) })
		if !errors.Is(e.err, context.Canceled) && !errors.Is(e.err, context.DeadlineExceeded) {
			return e.wf, e.err
		}
		c.forget(s, e)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// entry returns the memo entry for s, creating it (and evicting down to
// Limit) on a miss.
func (c *Cache) entry(s Spec) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[Spec]*cacheEntry)
		c.order = list.New()
	}
	e, ok := c.entries[s]
	if ok {
		c.hits++
		c.order.MoveToFront(e.elem)
	} else {
		c.misses++
		e = new(cacheEntry)
		e.elem = c.order.PushFront(s)
		c.entries[s] = e
		for c.Limit > 0 && len(c.entries) > c.Limit {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(Spec))
			c.evicted++
		}
	}
	return e
}

// forget drops e from the memo if it is still the entry for s.
func (c *Cache) forget(s Spec, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[s] == e {
		c.order.Remove(e.elem)
		delete(c.entries, s)
	}
}

// Len reports how many specs are currently memoized.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evicted, Entries: len(c.entries)}
}

// defaultCache backs Cached: one process-wide memo of the preset
// workflows every figure and sweep shares.
var defaultCache Cache

// Cached is Generate memoized through a process-wide cache; see Cache
// for the sharing contract.  Only trusted callers (the experiment
// harness, the CLIs) should use it -- a server fielding arbitrary specs
// must own a bounded Cache instead.
func Cached(s Spec) (*dag.Workflow, error) {
	return defaultCache.Generate(s)
}
