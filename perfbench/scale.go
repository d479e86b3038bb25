package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"time"

	"repro/wire"
)

// ladder is the cold-scale mosaic sizes in degrees: 1 degree up to the
// largest size whose cold request stays within a few seconds.
var ladder = []float64{1, 2, 4, 6, 8, 10}

// smallLadder keeps the benchmark's own tests quick.
var smallLadder = []float64{1, 2}

// rssLadders is how many ladders run before peak_rss_mb is read.  Every
// request adds a workflow to the server's 64-entry generation memo, and
// a run of a few ladders does not fill it, so the peak keeps growing
// with each ladder; a fixed count keeps it a measure of the program.
const rssLadders = 4

// coldScale is the cold-scale workload: one client in a closed loop
// POSTs /v2/run up the ladder of custom mosaic sizes.  Every request is
// a spec no tier has seen (its workflow.ccr is unique), so each one
// pays decode, generate, simulate, encode and the store write.
type coldScale struct {
	cfg   *config
	sizes []float64
	pool  []*replica
	c     *http.Client
	sent  []scaleReq
	warm  int // cold requests set-up sent
	// ccrBase + 1e-7*n is the n-th request's workflow.ccr: unique, so
	// every request is a new spec.
	ccrBase float64
	n       int
}

type scaleReq struct {
	degrees  float64
	scenario []byte
	body     []byte
	tier     string
	tasks    int
	latency  time.Duration
	cpu      time.Duration // process CPU time while it was in flight
	req, srv int           // span IDs of a traced run
	err      error
}

func newColdScale(cfg *config) workload {
	sizes := ladder
	if cfg.small {
		sizes = smallLadder
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	return &coldScale{cfg: cfg, sizes: sizes, ccrBase: 0.04 + 0.02*rng.Float64()}
}

// scenario builds the next unseen request for a mosaic of deg degrees.
func (s *coldScale) scenario(deg float64) ([]byte, int, error) {
	s.n++
	sc := wire.Scenario{Version: wire.Version, Workflow: wire.WorkflowSection{Degrees: deg, CCR: s.ccrBase + 1e-7*float64(s.n)}}
	spec, _, err := sc.Resolve()
	if err != nil {
		return nil, 0, err
	}
	b, err := json.Marshal(sc)
	return b, spec.TaskCount(), err
}

// setup starts one replica with a store and sends one cold request
// per ladder size below 7 degrees, so connections and code paths are
// warm.
func (s *coldScale) setup() error {
	pool, err := startPool(filepath.Join(s.cfg.dir, "store"))
	if err != nil {
		return err
	}
	s.pool, s.c = pool, newClient()
	for _, deg := range s.sizes {
		if deg >= 7 && !s.cfg.small {
			break
		}
		b, tasks, err := s.scenario(deg)
		if err != nil {
			return err
		}
		body, _, err := post(s.c, s.pool[0].addr, "/v2/run", b)
		if err != nil {
			return err
		}
		if err := checkRun(body, tasks); err != nil {
			return err
		}
		s.warm++
	}
	return nil
}

func (s *coldScale) run(d time.Duration) (*outcome, error) {
	out := &outcome{detail: map[string]any{}}
	tr := s.cfg.tr
	// Throughput is over complete ladders only, since per-task cost grows
	// with size.  The deadline is checked before every request; the
	// first ladder always completes.
	var rates []float64
	var ladderTasks int
	var ladderCPU time.Duration
	start := time.Now()
	for ladders := 0; ladders == 0 || time.Since(start) < d; ladders++ {
		ladderStart, tasks := time.Now(), 0
		var used time.Duration
		complete := true
		for _, deg := range s.sizes {
			if ladders > 0 && time.Since(start) >= d {
				complete = false
				break
			}
			b, n, err := s.scenario(deg)
			if err != nil {
				return nil, err
			}
			r := scaleReq{degrees: deg, scenario: b, tasks: n, req: tr.request()}
			s.cfg.cal.tick()
			t0, c0 := time.Now(), cpuNow()
			r.body, r.tier, r.err = post(s.c, s.pool[0].addr, "/v2/run", b)
			t1 := time.Now()
			r.latency, r.cpu = t1.Sub(t0), cpuNow()-c0
			if tr != nil {
				root := tr.record(r.req, 0, "client", "request", t0, t1)
				r.srv = tr.record(r.req, root, "server", "POST /v2/run", t0, t1)
			}
			if r.err == nil {
				tasks += n
			}
			used += r.cpu
			s.sent = append(s.sent, r)
		}
		if complete {
			rates = append(rates, float64(tasks)/time.Since(ladderStart).Seconds())
			ladderTasks += tasks
			ladderCPU += used
			if ladders+1 == rssLadders {
				out.rssMB = peakRSSMB()
			}
		}
	}
	out.throughput = medianFloat(rates)
	out.perCPU = ratio(float64(ladderTasks), ladderCPU.Seconds())
	// cpu_per_op is a whole ladder: the top size alone gives six or so
	// samples a run, each holding a random share of the collections its
	// neighbours' garbage triggers, and its mean moved by a tenth from
	// run to run.  The 10-degree request is about 60% of a ladder.
	out.cpuMS = ratio(ms(ladderCPU), float64(len(rates)))
	top := s.sizes[len(s.sizes)-1]
	perSize := map[string][]float64{}
	dg := newDigest()
	for i := range s.sent {
		r := &s.sent[i]
		out.attempted++
		if r.err == nil && r.tier != "miss" {
			r.err = fmt.Errorf("%g-degree request answered from %q, want a cold miss", r.degrees, r.tier)
		}
		if r.err == nil {
			r.err = checkRun(r.body, r.tasks)
		}
		if r.err != nil {
			out.failed++
			logFailure(r.err)
			continue
		}
		if r.degrees == top {
			out.latency = append(out.latency, r.latency)
		}
		k := fmt.Sprintf("%gdeg", r.degrees)
		perSize[k] = append(perSize[k], ms(r.latency)/float64(r.tasks)*1e3)
		if i < len(s.sizes) && !s.cfg.small {
			dg.add(r.body)
		}
	}
	if !s.cfg.small {
		out.digest = dg.sum()
	}
	perTask := map[string]float64{}
	for k, v := range perSize {
		perTask[k] = medianFloat(v)
	}
	out.detail["us_per_task_by_size"] = perTask
	out.detail["requests"] = len(s.sent)

	m, err := scrapeSum(s.c, s.pool)
	if err != nil {
		return nil, err
	}
	out.layer = serverLayer(m, m["reprosrv_simulations_total"], float64(len(s.sent)+s.warm))
	tiers := map[string]int{}
	for _, r := range s.sent {
		if r.err == nil {
			tiers[r.tier]++
		}
	}
	tierShares(out.layer, tiers, out.attempted-out.failed)
	if tr != nil {
		rp, err := newReplayer(tr, filepath.Join(s.cfg.dir, "replay"))
		if err != nil {
			return nil, err
		}
		for _, r := range s.sent {
			if r.err != nil {
				continue
			}
			if err := rp.run(r.req, r.srv, r.scenario, r.tier, r.body); err != nil {
				out.failed++
				logFailure(err)
			}
		}
	}
	return out, nil
}

func (s *coldScale) probes() [][]byte {
	var in [][]byte
	for _, r := range s.sent {
		if r.err == nil {
			in = append(in, r.scenario)
		}
		if len(in) == len(s.sizes) {
			break
		}
	}
	return in
}

func (s *coldScale) close() error {
	if s.c != nil {
		s.c.CloseIdleConnections()
	}
	return stopPool(s.pool)
}
