package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightGroupExecutesOnce(t *testing.T) {
	var g flightGroup
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	const waiters = 8

	results := make([]answer, waiters)
	errs := make([]error, waiters)
	shared := make([]bool, waiters)
	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], shared[i], errs[i] = g.Do(context.Background(), "key", func(ctx context.Context) (answer, error) {
				close(started)
				calls.Add(1)
				<-release
				return answer{[]byte("answer"), "miss"}, nil
			})
		}(i)
	}
	<-started
	// Wait until every goroutine has joined the flight, then land it.
	for deadline := time.Now().Add(5 * time.Second); ; {
		g.mu.Lock()
		n := 0
		for _, f := range g.flights {
			n += f.waiters
		}
		g.mu.Unlock()
		if n == waiters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters joined", n, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	sharedCount := 0
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Errorf("waiter %d: %v", i, errs[i])
		}
		// Every waiter, followers included, reads the leader's tier.
		if string(results[i].body) != "answer" || results[i].tier != "miss" {
			t.Errorf("waiter %d got %q from %q", i, results[i].body, results[i].tier)
		}
		if shared[i] {
			sharedCount++
		}
	}
	if sharedCount != waiters-1 {
		t.Errorf("%d waiters were shared, want %d", sharedCount, waiters-1)
	}
}

func TestFlightGroupErrorNotMemoized(t *testing.T) {
	var g flightGroup
	boom := errors.New("boom")
	if _, _, err := g.Do(context.Background(), "k", func(context.Context) (answer, error) {
		return answer{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// A finished (even failed) flight leaves the group: the next call
	// runs fn again.
	a, shared, err := g.Do(context.Background(), "k", func(context.Context) (answer, error) {
		return answer{[]byte("ok"), "miss"}, nil
	})
	if err != nil || shared || string(a.body) != "ok" {
		t.Errorf("second call = %q, shared=%v, err=%v", a.body, shared, err)
	}
}

func TestFlightGroupLastWaiterCancelsFlight(t *testing.T) {
	var g flightGroup
	fnCtxDone := make(chan struct{})
	entered := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(fctx context.Context) (answer, error) {
			close(entered)
			<-fctx.Done()
			close(fnCtxDone)
			return answer{}, fctx.Err()
		})
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter err = %v, want canceled", err)
	}
	select {
	case <-fnCtxDone:
	case <-time.After(5 * time.Second):
		t.Error("flight context not canceled after last waiter left")
	}
}

func TestFlightGroupSurvivorKeepsFlightAlive(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	fn := func(fctx context.Context) (answer, error) {
		close(entered)
		select {
		case <-release:
			return answer{[]byte("landed"), "store"}, nil
		case <-fctx.Done():
			return answer{}, fctx.Err()
		}
	}
	impatient, cancelImpatient := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, _, err := g.Do(impatient, "k", fn)
		first <- err
	}()
	<-entered
	second := make(chan error, 1)
	var secondAnswer answer
	go func() {
		a, _, err := g.Do(context.Background(), "k", fn)
		secondAnswer = a
		second <- err
	}()
	// Wait for the second caller to join, then cancel the first.
	for deadline := time.Now().Add(5 * time.Second); ; {
		g.mu.Lock()
		var n int
		for _, f := range g.flights {
			n += f.waiters
		}
		g.mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second caller never joined")
		}
		time.Sleep(time.Millisecond)
	}
	cancelImpatient()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("first err = %v", err)
	}
	close(release)
	if err := <-second; err != nil {
		t.Fatalf("second err = %v: one client hanging up aborted another's flight", err)
	}
	if string(secondAnswer.body) != "landed" || secondAnswer.tier != "store" {
		t.Errorf("second answer = %q from %q", secondAnswer.body, secondAnswer.tier)
	}
}
