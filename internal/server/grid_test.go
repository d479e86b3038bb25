package server

// The one grid path (resolveGrid) seen from /v1/sweep and the advisors:
// their points share the tier chain's caches, flights, worker slots and
// simulation counter with runs, and their grids are bounded.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/wire"
)

// TestSweepV1WarmTakesNoSlot: once a /v1/sweep grid is cached, repeating
// it streams the same bytes without a worker slot, even while the only
// slot is held by a computation that never finishes.
func TestSweepV1WarmTakesNoSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	cold, coldStream := postJSON(t, ts.URL+"/v1/sweep", goldenSweepV1)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold sweep status %d: %s", cold.StatusCode, coldStream)
	}
	unblock := blockCompute(t, s)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postV2Run(t, ts.URL, v2Scenario(3), false)
	}()
	waitInflight(t, s, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(goldenSweepV1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("warm sweep waited for the held slot: %v", err)
	}
	warmStream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("warm sweep waited for the held slot: %v", err)
	}
	if string(warmStream) != string(coldStream) {
		t.Errorf("warm stream differs from cold:\nwarm: %s\ncold: %s", warmStream, coldStream)
	}
	unblock()
	wg.Wait()
}

// TestSweepV1PointIsTheRun: a ccr == 0 /v1/sweep point is the /v1/run
// of its plan, answered from the entry that run left in the memory LRU.
func TestSweepV1PointIsTheRun(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, runBody := postRun(t, ts, `{"workflow":"1deg","billing":"provisioned","mode":"cleanup","processors":4}`)
	sims, hits := s.metrics.simulations.Load(), s.cache.Stats().Hits
	resp, stream := postJSON(t, ts.URL+"/v1/sweep", `{"workflow":"1deg","billing":"provisioned","processors":[4],"modes":["cleanup"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, stream)
	}
	if got := s.metrics.simulations.Load(); got != sims {
		t.Errorf("the sweep simulated %d times; its point was cached", got-sims)
	}
	if got := s.cache.Stats().Hits; got != hits+1 {
		t.Errorf("the sweep made %d memory hits, want 1", got-hits)
	}
	row, err := wire.AppendSweepRow(nil, 0, runBody)
	if err != nil {
		t.Fatal(err)
	}
	if first, _, _ := strings.Cut(string(stream), "\n"); first+"\n" != string(row) {
		t.Errorf("sweep row is not the /v1/run body:\n got: %s\nwant: %s", first, row)
	}
}

// TestAdvisorCountsSimulations: each pool size costs one simulation,
// once, whichever surface asks.
func TestAdvisorCountsSimulations(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, step := range []struct {
		path string
		want uint64
	}{
		{"/v1/advisor?workflow=1deg", 8},
		{"/v1/advisor?workflow=1deg", 0},
		{"/v2/advisor?workflow=1deg", 0},
	} {
		before := s.metrics.simulations.Load()
		if resp, body := getBody(t, ts.URL+step.path); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step.path, resp.StatusCode, body)
		}
		if got := s.metrics.simulations.Load() - before; got != step.want {
			t.Errorf("%s simulated %d times, want %d", step.path, got, step.want)
		}
	}
}

// TestAdvisorRecommendationIsCachedRun: the option the advisor measured
// is the run of the scenario it recommends, in every data-management
// mode, so POSTing that scenario is a cache hit costing what it said.
func TestAdvisorRecommendationIsCachedRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, mode := range []string{"remote-io", "regular", "cleanup"} {
		resp, body := getBody(t, ts.URL+"/v2/advisor?workflow=1deg&processors=1,2,4,8&mode="+mode)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", mode, resp.StatusCode, body)
		}
		var advice struct {
			Recommended *struct {
				CostDollars float64         `json:"cost_dollars"`
				Scenario    json.RawMessage `json:"scenario"`
			} `json:"recommended"`
		}
		if err := json.Unmarshal(body, &advice); err != nil || advice.Recommended == nil {
			t.Fatalf("%s: no recommendation (%v): %s", mode, err, body)
		}
		run, runBody := postJSON(t, ts.URL+"/v2/run", string(advice.Recommended.Scenario))
		if run.StatusCode != http.StatusOK {
			t.Fatalf("%s: recommended scenario status %d: %s", mode, run.StatusCode, runBody)
		}
		if got := run.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("%s: recommended scenario X-Cache = %q, want hit", mode, got)
		}
		var doc wire.RunDocumentV2
		if err := json.Unmarshal(runBody, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Total.Dollars() != advice.Recommended.CostDollars {
			t.Errorf("%s: recommended scenario costs $%v, advisor said $%v", mode, doc.Total.Dollars(), advice.Recommended.CostDollars)
		}
	}
}

// TestGridBounds: a /v1/sweep cross product or an advisor size list
// beyond wire.MaxGridPoints is a 400 before anything is built or run.
func TestGridBounds(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	axis := func(n int) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprint(i + 1)
		}
		return strings.Join(vals, ",")
	}
	sweep := fmt.Sprintf(`{"workflow":"1deg","processors":[%s],"ccrs":[%s]}`, axis(65), axis(65))
	if resp, body := postJSON(t, ts.URL+"/v1/sweep", sweep); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("65 x 65 /v1/sweep: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	for _, path := range []string{"/v1/advisor", "/v2/advisor"} {
		resp, body := getBody(t, ts.URL+path+"?workflow=1deg&processors="+axis(wire.MaxGridPoints+1))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with %d sizes: status %d, want 400 (%s)", path, wire.MaxGridPoints+1, resp.StatusCode, body)
		}
	}
	if got := s.metrics.simulations.Load(); got != 0 {
		t.Errorf("rejected grids simulated %d times", got)
	}
}
