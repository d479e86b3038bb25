package server

// The one tier chain (resolve) seen from its callers: peer answers that
// must be checked, coalesced followers that must name the answering
// tier, and sweep points that share flights and worker slots with runs.

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/wire"
)

// v2Key is the canonical v2 cache key of a scenario document.
func v2Key(t *testing.T, doc string) string {
	t.Helper()
	var sc wire.Scenario
	if err := wire.DecodeStrict(strings.NewReader(doc), &sc); err != nil {
		t.Fatal(err)
	}
	spec, plan, err := sc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return wire.CanonicalRunKeyV2(spec, plan)
}

// withStubOwner boots a server in a two-member ring whose other member
// is owner, a stub peer, and returns it with a scenario the stub owns.
func withStubOwner(t *testing.T, owner http.Handler) (*Server, *httptest.Server, string) {
	t.Helper()
	stub := httptest.NewServer(owner)
	t.Cleanup(stub.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := l.Addr().String()
	l.Close()
	peers := []string{self, strings.TrimPrefix(stub.URL, "http://")}
	s, err := New(Config{Peers: peers, Self: self})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for p := 1; p <= 64; p++ {
		if doc := v2Scenario(p); s.ring.Owner(wire.KeyHash(v2Key(t, doc))) == peers[1] {
			return s, ts, doc
		}
	}
	t.Fatal("the stub owns none of 64 keys")
	return nil, nil, ""
}

// referenceRun computes a scenario's canonical body on a standalone
// server.
func referenceRun(t *testing.T, doc string) []byte {
	t.Helper()
	_, ref := newTestServer(t, Config{})
	_, body := postV2Run(t, ref.URL, doc, false)
	return body
}

// waitWaiters polls until the flight for key has n waiters.
func waitWaiters(t *testing.T, s *Server, key string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		s.flights.mu.Lock()
		got := 0
		if f := s.flights.flights[key]; f != nil {
			got = f.waiters
		}
		s.flights.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers joined the flight", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitInflight polls until n computations hold worker slots.
func waitInflight(t *testing.T, s *Server, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.metrics.inflight.Load() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("in flight = %d, want %d", s.metrics.inflight.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockCompute makes every computation wait inside its worker slot
// until the returned function is called (it is also called at cleanup).
func blockCompute(t *testing.T, s *Server) (unblock func()) {
	release := make(chan struct{})
	var once sync.Once
	unblock = func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	s.testHookPreSim = func() { <-release }
	return unblock
}

// TestRunV2GarbledPeerDegradesToLocal: a peer that answers 200 with a
// body that is not a run document is a peer failure, so the request
// computes locally instead of caching and serving the garbage.
func TestRunV2GarbledPeerDegradesToLocal(t *testing.T) {
	s, ts, doc := withStubOwner(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"bogus":true}`)) //nolint:errcheck
	}))
	want := referenceRun(t, doc)

	resp, body := postV2Run(t, ts.URL, doc, false)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss (local compute)", got)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("served %s, want the computed document", body)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "\nreprosrv_peer_failures_total 1\n") {
		t.Errorf("garbled peer answer not counted as a peer failure: %d failures", s.metrics.peerFailures.Load())
	}
	if sims := s.metrics.simulations.Load(); sims != 1 {
		t.Errorf("simulations = %d, want 1", sims)
	}
}

// TestRunV2CoalescedFollowersReportPeerTier: every request of a herd
// that joined one flight names the tier that answered the flight, not
// just its leader.
func TestRunV2CoalescedFollowersReportPeerTier(t *testing.T) {
	const herd = 4
	release := make(chan struct{})
	var ownerBody []byte
	s, ts, doc := withStubOwner(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(ownerBody) //nolint:errcheck
	}))
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	ownerBody = referenceRun(t, doc)

	tiers := make([]string, herd)
	bodies := make([][]byte, herd)
	var wg sync.WaitGroup
	wg.Add(herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v2/run", "application/json", strings.NewReader(doc))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			tiers[i] = resp.Header.Get("X-Cache")
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	waitWaiters(t, s, v2Key(t, doc), herd)
	unblock()
	wg.Wait()

	for i := range tiers {
		if tiers[i] != "peer" {
			t.Errorf("request %d: X-Cache = %q, want peer", i, tiers[i])
		}
		if !bytes.Equal(bodies[i], ownerBody) {
			t.Errorf("request %d got a different body", i)
		}
	}
	if got := s.metrics.peerFetches.Load(); got != 1 {
		t.Errorf("peer fetches = %d, want 1", got)
	}
	if got := s.metrics.coalesced.Load(); got != herd-1 {
		t.Errorf("coalesced = %d, want %d", got, herd-1)
	}
}

const threePointSweep = `{
  "scenario": {"version": 2, "workflow": {"name": "1deg"}},
  "axes": [{"axis": "fleet.processors", "values": [1, 2, 4]}]
}`

// sweepStream POSTs a /v2/sweep and returns the whole stream, failing
// the test if it takes longer than limit.
func sweepStream(t *testing.T, url, body string, limit time.Duration) []byte {
	t.Helper()
	c := &http.Client{Timeout: limit}
	resp, err := c.Post(url+"/v2/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// TestSweepV2PointCoalescesWithRunAtOneSlot: with a single worker slot,
// a sweep and a concurrent /v2/run for one of its points both finish,
// and the shared point simulates once.  A sweep that held a slot while
// its point waited on the run's flight would deadlock here.
func TestSweepV2PointCoalescesWithRunAtOneSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	unblock := blockCompute(t, s)
	run := v2Scenario(2)

	var runBody []byte
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		resp, err := http.Post(ts.URL+"/v2/run", "application/json", strings.NewReader(run))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		runBody, _ = io.ReadAll(resp.Body)
	}()
	waitInflight(t, s, 1)

	var stream []byte
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		resp, err := http.Post(ts.URL+"/v2/sweep", "application/json", strings.NewReader(threePointSweep))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		stream, _ = io.ReadAll(resp.Body)
	}()
	waitWaiters(t, s, v2Key(t, run), 2)
	unblock()
	<-runDone
	<-sweepDone

	lines := bytes.SplitAfter(stream, []byte("\n"))
	if len(lines) < 2 || !bytes.Contains(stream, []byte(`{"done":{"rows":3}}`)) {
		t.Fatalf("sweep did not complete: %s", stream)
	}
	wantRow, err := wire.AppendSweepRow(nil, 1, runBody)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lines[1], wantRow) {
		t.Errorf("shared point's row differs from the run:\nrow: %s\nrun: %s", lines[1], wantRow)
	}
	if got := s.metrics.simulations.Load(); got != 3 {
		t.Errorf("simulations = %d for 3 distinct keys, want 3", got)
	}
	if got := s.metrics.coalesced.Load(); got != 1 {
		t.Errorf("coalesced = %d, want 1", got)
	}
}

// TestWarmSweepV2NeedsNoSlot: a sweep whose every point is in memory
// streams while a blocked /v1/run holds the only worker slot.
func TestWarmSweepV2NeedsNoSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	cold := sweepStream(t, ts.URL, threePointSweep, 30*time.Second)

	unblock := blockCompute(t, s)
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"workflow":"1deg","processors":3}`))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}()
	waitInflight(t, s, 1)

	warm := sweepStream(t, ts.URL, threePointSweep, 10*time.Second)
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm sweep differs from cold:\ncold: %s\nwarm: %s", cold, warm)
	}
	unblock()
	<-runDone
	if got := s.metrics.simulations.Load(); got != 4 {
		t.Errorf("simulations = %d, want 3 sweep points + 1 run", got)
	}
}

// TestRunV1UsesStore: /v1/run resolves through the same chain, so a
// fresh daemon over the same store serves it from disk.
func TestRunV1UsesStore(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{StoreDir: dir})
	_, coldBody := postRun(t, ts1, `{"workflow":"1deg","processors":4}`)
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	warm, warmBody := postRun(t, ts2, `{"workflow":"1deg","processors":4}`)
	if got := warm.Header.Get("X-Cache"); got != "store" {
		t.Errorf("restart X-Cache = %q, want store", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("store served different bytes:\nbefore: %s\nafter: %s", coldBody, warmBody)
	}
	if sims := s2.metrics.simulations.Load(); sims != 0 {
		t.Errorf("restarted daemon simulated %d times, want 0", sims)
	}
}
