package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/shard"
	"repro/wire"
)

// Sweep-pool traffic; README.md gives each assumption's reason.
const (
	// warmGrids are swept during set-up, so repeats have something to
	// repeat: three of each size.
	warmGrids   = 9
	digestGrids = 8 // sweeps whose streams the digest pins
	smallGrids  = 2
	// fixedSweeps is how many sweeps peak_rss_mb and the CPU costs are
	// taken over.  Fresh rows keep filling the servers' 1024-entry result
	// caches and the heap through a run, so a run that finished more
	// sweeps would read larger and costlier; a fixed count keeps both a
	// measure of the program and not of how fast the host ran.  A 15 s
	// run passes it at a third of a 2-vCPU host's speed.
	fixedSweeps  = 100
	processorsAx = "fleet.processors"
	modeAx       = "storage.mode"
)

// sweepPool is the sweep-pool workload: one client in a closed loop
// POSTs /v2/sweep grids to two sharded replicas in turn, each with its
// own store.  Some grids repeat earlier ones (their points come from a
// peer or the store), the rest are fresh (computed).
type sweepPool struct {
	cfg   *config
	rng   *rand.Rand
	pool  []*replica
	ref   []*replica // a standalone replica, the byte-identity reference
	ring  *shard.Ring
	c     *http.Client
	grids []*grid // every grid drawn, fresh ones in order
	seen  []*grid // grids already swept, which repeats draw from
	sent  []sweepReq
}

type grid struct {
	id     int
	body   []byte
	points []wire.ResolvedPoint
	tasks  []int
	keys   []string
}

type sweepReq struct {
	g        *grid
	target   int
	fresh    bool
	stream   []byte
	firstRow time.Duration
	total    time.Duration
	cpu      time.Duration // process CPU time while it was in flight
	start    time.Time
	err      error
	req, srv int
}

func newSweepPool(cfg *config) workload {
	return &sweepPool{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed))}
}

// newGrid draws a fresh grid: a preset base scenario swept over the
// paper's two provisioning questions, processors x storage mode, and
// priced uniquely so no tier has seen it.  Bases take the three sizes
// in turn, so every seed sweeps the same mix.
func (s *sweepPool) newGrid() (*grid, error) {
	sc := wire.Scenario{Version: wire.Version}
	sc.Workflow.Name = presetNames[len(s.grids)%len(presetNames)]
	sc.Pricing = &wire.PricingSection{CPUPerHour: 0.1 + 1e-6*float64(len(s.grids)+1) + 1e-3*s.rng.Float64()}
	req := wire.SweepRequest{Scenario: sc, Axes: []wire.Axis{
		{Path: processorsAx, Values: []any{4, 8, 16, 32}},
		{Path: modeAx, Values: []any{"remote-io", "regular", "cleanup"}},
	}}
	if s.cfg.small {
		req.Axes = req.Axes[:1]
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	// Resolve from the wire bytes, as the server does.
	var back wire.SweepRequest
	if err := wire.DecodeStrict(bytes.NewReader(body), &back); err != nil {
		return nil, err
	}
	points, err := back.ResolveGrid()
	if err != nil {
		return nil, err
	}
	g := &grid{id: len(s.grids), body: body, points: points}
	for _, p := range points {
		g.tasks = append(g.tasks, p.Spec.TaskCount())
		g.keys = append(g.keys, wire.CanonicalRunKeyV2(p.Spec, p.Plan))
	}
	s.grids = append(s.grids, g)
	return g, nil
}

// setup starts the two-replica pool and the standalone reference, then
// sweeps the warm grids so repeats have something to repeat.
func (s *sweepPool) setup() error {
	var err error
	dir := s.cfg.dir
	if s.pool, err = startPool(filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil {
		return err
	}
	if s.ref, err = startPool(""); err != nil {
		return err
	}
	if s.ring, err = shard.New([]string{s.pool[0].addr, s.pool[1].addr}); err != nil {
		return err
	}
	s.c = newClient()
	n := warmGrids
	if s.cfg.small {
		n = smallGrids
	}
	for i := 0; i < n; i++ {
		g, err := s.newGrid()
		if err != nil {
			return err
		}
		r := s.sweep(g, i%2)
		if r.err != nil {
			return r.err
		}
		if err := checkSweep(r.stream, g.tasks); err != nil {
			return err
		}
		s.seen = append(s.seen, g)
	}
	return nil
}

// sweep POSTs one grid to pool[target] and reads the whole stream,
// timing the first row.
func (s *sweepPool) sweep(g *grid, target int) sweepReq {
	r := sweepReq{g: g, target: target, start: time.Now()}
	cpu0 := cpuNow()
	r.stream, r.firstRow, r.err = postStream(s.c, s.pool[target].addr, g.body)
	r.total, r.cpu = time.Since(r.start), cpuNow()-cpu0
	return r
}

// postStream POSTs a sweep and returns the NDJSON stream and the time
// until its first line arrived.
func postStream(c *http.Client, addr string, body []byte) ([]byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.Post("http://"+addr+"/v2/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, 0, fmt.Errorf("POST /v2/sweep: status %d: %.200s", resp.StatusCode, b)
	}
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	firstRow := time.Since(t0)
	if err != nil {
		return first, firstRow, fmt.Errorf("POST /v2/sweep: %w", err)
	}
	rest, err := io.ReadAll(br)
	return append(first, rest...), firstRow, err
}

func (s *sweepPool) run(d time.Duration) (*outcome, error) {
	out := &outcome{detail: map[string]any{}, layer: map[string]float64{}}
	tr := s.cfg.tr
	start := time.Now()
	rows := 0
	var rowsCPU time.Duration // over the first fixedSweeps
	fixedRows := 0
	var ends []time.Time
	var counts []int
	for i := 0; len(s.sent) == 0 || time.Since(start) < d; i++ {
		var g *grid
		// Every other sweep repeats an earlier grid: no record says how
		// often users re-ask, so served and computed sweeps are equally
		// likely.  The seed picks which grid repeats.
		fresh := i%2 == 1
		if fresh {
			var err error
			if g, err = s.newGrid(); err != nil {
				return nil, err
			}
		} else {
			g = s.seen[s.rng.Intn(len(s.seen))]
		}
		s.cfg.cal.tick()
		r := s.sweep(g, i%2)
		r.fresh = fresh
		if fresh {
			s.seen = append(s.seen, g)
		}
		if r.err == nil {
			rows += len(g.points)
			ends = append(ends, r.start.Add(r.total))
			counts = append(counts, len(g.points))
		}
		if r.err == nil && i < fixedSweeps {
			fixedRows += len(g.points)
			rowsCPU += r.cpu
		}
		if tr != nil {
			r.req = tr.request()
			root := tr.record(r.req, 0, "client", "sweep", r.start, r.start.Add(r.total))
			r.srv = tr.record(r.req, root, "server", "POST /v2/sweep", r.start, r.start.Add(r.total))
		}
		s.sent = append(s.sent, r)
		if len(s.sent) == fixedSweeps {
			out.rssMB = peakRSSMB()
		}
	}
	out.throughput = windowRate(start, ends, counts)
	// cpu_per_op is the mean sweep, half of them repeated and half
	// fresh.  The median repeated sweep (a few milliseconds, served from
	// a peer or the store) moved by a fifth from run to run with the
	// collections a fresh sweep's garbage triggers landing on it.
	out.cpuMS = ratio(ms(rowsCPU), float64(min(len(s.sent), fixedSweeps)))
	out.perCPU = ratio(float64(fixedRows), rowsCPU.Seconds())

	// Checks: every stream well-formed, and byte-identical to what a
	// standalone replica streams for the same grid.
	refs := map[int][]byte{}
	dg := newDigest()
	tiers := map[string]int{}
	remote, points := 0, 0
	var byClass [2]samples // first rows of repeated, fresh sweeps
	for i := range s.sent {
		r := &s.sent[i]
		out.attempted++
		if r.err == nil {
			r.err = checkSweep(r.stream, r.g.tasks)
		}
		if r.err == nil {
			ref, ok := refs[r.g.id]
			if !ok {
				ref, _, r.err = postStream(s.c, s.ref[0].addr, r.g.body)
				refs[r.g.id] = ref
			}
			if r.err == nil && !bytes.Equal(ref, r.stream) {
				r.err = fmt.Errorf("grid %d: pool stream differs from the standalone stream", r.g.id)
			}
		}
		if r.err != nil {
			out.failed++
			logFailure(r.err)
			continue
		}
		out.latency = append(out.latency, r.firstRow)
		if r.fresh {
			byClass[1] = append(byClass[1], r.firstRow)
		} else {
			byClass[0] = append(byClass[0], r.firstRow)
		}
		if i < digestGrids && !s.cfg.small {
			dg.add(r.stream)
		}
		for _, key := range r.g.keys {
			points++
			switch {
			case s.ring.Owner(wire.KeyHash(key)) != s.pool[r.target].addr:
				remote++
				tiers["peer"]++
			case r.fresh:
				tiers["miss"]++
			default:
				tiers["store"]++
			}
		}
	}
	if !s.cfg.small {
		out.digest = dg.sum()
	}
	// Half the sweeps are served and half computed, so the pooled median
	// would sit between the two; the two medians weigh equally instead.
	var meds []float64
	for _, c := range byClass {
		if len(c) > 0 {
			meds = append(meds, c.p50())
		}
	}
	for _, m := range meds {
		out.p50 += m / float64(len(meds))
	}
	out.detail["first_row_p50_ms"] = map[string]float64{"repeated": byClass[0].p50(), "fresh": byClass[1].p50()}
	tierShares(out.layer, tiers, points)
	out.layer["shard.remote_share"] = ratio(float64(remote), float64(points))
	out.detail["sweeps"] = len(s.sent)
	out.detail["rows"] = rows

	// sweepPoint never counts reprosrv_simulations_total, so computes
	// come from the store writes: every computed point is persisted once.
	m, err := scrapeSum(s.c, s.pool)
	if err != nil {
		return nil, err
	}
	distinct := 0
	for _, g := range s.grids {
		distinct += len(g.keys)
	}
	for k, v := range serverLayer(m, m["reprosrv_store_writes_total"], float64(distinct)) {
		out.layer[k] = v
	}
	if tr != nil {
		if err := s.replay(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replay re-does each sweep's module calls under its server span: the
// request decode, then per point the key, the ring lookup, the relay
// hop for remote points, the store read or the computation, and the
// row recode.
func (s *sweepPool) replay(out *outcome) error {
	tr := s.cfg.tr
	rp, err := newReplayer(tr, filepath.Join(s.cfg.dir, "replay"))
	if err != nil {
		return err
	}
	relay := shard.NewClient(0)
	for i := range s.sent {
		r := &s.sent[i]
		if r.err != nil {
			continue
		}
		var derr error
		tr.do(r.req, r.srv, "wire", "decode", func() {
			var req wire.SweepRequest
			if derr = wire.DecodeStrict(bytes.NewReader(r.g.body), &req); derr == nil {
				_, derr = req.ResolveGrid()
			}
		})
		if derr != nil {
			return derr
		}
		rows := bytes.Split(bytes.TrimSuffix(r.stream, []byte("\n")), []byte("\n"))
		for k, p := range r.g.points {
			key := r.g.keys[k]
			tr.do(r.req, r.srv, "wire", "key", func() { _ = wire.KeyHash(wire.CanonicalRunKeyV2(p.Spec, p.Plan)) })
			var env wire.SweepEnvelope
			if err := wire.DecodeStrict(bytes.NewReader(rows[k]), &env); err != nil {
				return err
			}
			body, err := env.Row.RunDocumentV2.Encode()
			if err != nil {
				return err
			}
			if owner := rp.owner(r.req, r.srv, s.ring, key); owner != s.pool[r.target].addr {
				raw, err := json.Marshal(p.Scenario)
				if err != nil {
					return err
				}
				var rerr error
				tr.do(r.req, r.srv, "shard", "relay", func() { _, rerr = relay.Run(context.Background(), owner, raw) })
				if rerr != nil {
					return rerr
				}
			}
			if r.fresh {
				got, err := rp.compute(r.req, r.srv, p.Spec, p.Plan, key)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, body) {
					return fmt.Errorf("replay: grid %d point %d differs from the streamed row", r.g.id, k)
				}
			} else if err := rp.storeGet(r.req, r.srv, key, body); err != nil {
				return err
			}
			tr.do(r.req, r.srv, "sweep", "row", func() {
				var doc wire.RunDocumentV2
				if derr = wire.DecodeStrict(bytes.NewReader(body), &doc); derr == nil {
					derr = json.NewEncoder(io.Discard).Encode(wire.SweepEnvelope{Row: &wire.SweepRow{Index: k, RunDocumentV2: doc}})
				}
			})
			if derr != nil {
				return derr
			}
		}
	}
	return nil
}

func (s *sweepPool) probes() [][]byte {
	var in [][]byte
	for _, g := range s.grids {
		for _, p := range g.points {
			b, err := json.Marshal(p.Scenario)
			if err == nil && len(in) < 24 {
				in = append(in, b)
			}
		}
	}
	return in
}

func (s *sweepPool) close() error {
	if s.c != nil {
		s.c.CloseIdleConnections()
	}
	err := stopPool(s.pool)
	if rerr := stopPool(s.ref); err == nil {
		err = rerr
	}
	return err
}
