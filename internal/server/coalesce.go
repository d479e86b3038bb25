package server

import (
	"context"
	"sync"
)

// flightGroup coalesces concurrent identical requests, singleflight
// style: callers who ask for the same key while a computation is in
// flight share its result instead of re-simulating, so a thundering
// herd of identical mosaic requests costs one simulation.
//
// The in-flight computation runs under its own context, detached from
// any single caller and canceled only when every waiter has gone away --
// one impatient client hanging up cannot abort work the others still
// want, but when the whole herd disconnects the simulation stops.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
}

type flight struct {
	waiters int
	cancel  context.CancelFunc
	done    chan struct{}
	answer  answer
	err     error
}

// answer is what a flight lands: a canonical result body and the cache
// tier that produced it, so every waiter names the same tier.
type answer struct {
	body []byte
	tier string
}

// Do returns fn's answer for key, executing fn at most once across all
// concurrent callers with the same key.  shared reports whether this
// call joined a flight another caller started.  If ctx is done before
// the flight lands, Do returns ctx's error (and aborts the flight if
// this was its last waiter).
func (g *flightGroup) Do(ctx context.Context, key string, fn func(ctx context.Context) (answer, error)) (a answer, shared bool, err error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	f, joined := g.flights[key]
	if !joined {
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight{cancel: cancel, done: make(chan struct{})}
		g.flights[key] = f
		//repro:detached a flight outlives canceled callers by design; every waiter joins via f.done, and the flight itself is the only writer
		go func() {
			a, err := fn(fctx)
			g.mu.Lock()
			f.answer, f.err = a, err
			// A finished flight leaves the map so the next request starts
			// fresh (results live in the response cache, not here).  The
			// guard matters: if every waiter left and a new flight took
			// the key, that flight is not ours to remove.
			if g.flights[key] == f {
				delete(g.flights, key)
			}
			g.mu.Unlock()
			close(f.done)
			cancel()
		}()
	}
	f.waiters++
	g.mu.Unlock()

	select {
	case <-f.done:
		return f.answer, joined, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			f.cancel()
			if g.flights[key] == f {
				delete(g.flights, key)
			}
		}
		g.mu.Unlock()
		return answer{}, joined, ctx.Err()
	}
}
