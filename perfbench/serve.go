package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/wire"
)

// Serve-mixed traffic.  No request record exists for this service, so
// every parameter below is an assumption; README.md gives each one's
// reason and the tier shares that result.
const (
	// hotSetSize is larger than the server's default 1024-entry memory
	// LRU, so both memory and store hits occur.
	hotSetSize = 1280
	// serveRate is the fixed offered rate: a few percent of the cached
	// path's capacity on a 2-vCPU host, so the p50 is service time and
	// not queueing, with 3000 samples in a 15 s run.
	serveRate = 400
	// freshEvery makes every 20th request (5%) one for a key no tier
	// has seen: enough misses (150 at the fixed rate in a 15 s run) that
	// misses writing the store beside the reads are measured.  A fixed
	// stride rather than a coin per request keeps the count of misses,
	// which cost a hundred hits each, the same on every seed.
	freshEvery = 20
	// zipfS is the Zipf exponent of the hot-key draw: math/rand's Zipf
	// needs s > 1, and 1.1 is the nearest round value to the classic s = 1.
	zipfS        = 1.1
	fixedShare   = 0.5 // share of the run spent at the fixed rate
	digestPrefix = 300 // requests whose bodies the digest pins
)

// serveMixed is the serve-mixed workload: an open loop of /v2/run at a
// fixed offered rate against one replica with a store, keys drawn from
// a seeded Zipf over a pre-filled hot set of preset scenarios plus a
// fixed share of fresh keys.  A second phase measures capacity: the
// completion rate of nproc closed-loop clients.
type serveMixed struct {
	cfg   *config
	hot   []hotKey
	draws []int // hot-set index per schedule slot; -1-i marks a fresh key made from hot key i
	pool  []*replica
	c     *http.Client
	fresh float64 // pricing offset that makes fresh keys unique to a seed

	mu     sync.Mutex
	bodies [][]byte          // first body served per hot key
	extra  map[int]freshBody // fresh-key bodies by schedule slot
}

type hotKey struct {
	scenario []byte
	sc       wire.Scenario
	tasks    int
}

type freshBody struct {
	body  []byte
	tasks int
}

// sample is one open-loop request.
type sample struct {
	slot            int
	due, sent, done time.Time
	from            time.Time // when the request's latency starts
	tier            string
	err             error
	body            []byte
}

func newServeMixed(cfg *config) workload {
	return &serveMixed{cfg: cfg, extra: map[int]freshBody{}}
}

// presetNames are the paper's three mosaic sizes.  The paper prices
// them side by side and no request record says which users ask for
// most, so every workload draws them with equal weight.
var presetNames = []string{"1deg", "2deg", "4deg"}

// hotScenario draws one scenario of the named preset: processors x
// storage mode x spot rate/seed x policies.
func hotScenario(rng *rand.Rand, preset string) wire.Scenario {
	sc := wire.Scenario{Version: wire.Version}
	sc.Workflow.Name = preset
	sc.Storage = &wire.StorageSection{Mode: []string{"remote-io", "regular", "cleanup"}[rng.Intn(3)]}
	procs := []int{0, 4, 8, 16, 32, 64}[rng.Intn(6)]
	if procs == 0 {
		return sc
	}
	sc.Fleet = &wire.FleetSection{Processors: procs}
	if procs < 8 || rng.Intn(2) == 0 {
		return sc
	}
	sc.Fleet.Reliable = procs / 4
	sc.Spot = &wire.SpotSection{
		RatePerHour: []float64{0.5, 1, 2}[rng.Intn(3)],
		Seed:        int64(rng.Intn(1 << 16)),
		Discount:    0.6,
	}
	sc.Recovery = &wire.RecoverySection{CheckpointSeconds: 300, CheckpointOverheadSeconds: 10}
	switch rng.Intn(4) {
	case 1:
		sc.Policies = &wire.PoliciesSection{Placement: "heft"}
	case 2:
		sc.Policies = &wire.PoliciesSection{Victim: "cost-aware"}
	case 3:
		sc.Policies = &wire.PoliciesSection{Checkpoint: "adaptive"}
	}
	return sc
}

// buildHotSet draws n distinct scenarios (by canonical key), taking
// the three sizes in turn so every seed has the same mix.
func buildHotSet(rng *rand.Rand, n int) ([]hotKey, error) {
	seen := map[string]bool{}
	var hot []hotKey
	for len(hot) < n {
		sc := hotScenario(rng, presetNames[len(hot)%len(presetNames)])
		spec, plan, err := sc.Resolve()
		if err != nil {
			return nil, err
		}
		key := wire.CanonicalRunKeyV2(spec, plan)
		if seen[key] {
			continue
		}
		seen[key] = true
		b, err := json.Marshal(sc)
		if err != nil {
			return nil, err
		}
		hot = append(hot, hotKey{scenario: b, sc: sc, tasks: spec.TaskCount()})
	}
	return hot, nil
}

// setup draws the hot set and the request schedule, starts one replica
// with a store and pre-fills the hot set through it.
func (s *serveMixed) setup() error {
	rng := rand.New(rand.NewSource(s.cfg.seed))
	n := hotSetSize
	if s.cfg.small {
		n = 64
	}
	hot, err := buildHotSet(rng, n)
	if err != nil {
		return err
	}
	s.hot, s.bodies = hot, make([][]byte, len(hot))
	s.fresh = rng.Float64() * 1e-3
	// Popularity is a Zipf over a seeded permutation of the hot set.
	// The k-th fresh key is hot key k priced uniquely: a new scenario
	// drawn like the hot ones, not a copy of a popular one, and the
	// three sizes come in turn as they do in the hot set.
	perm := rng.Perm(len(hot))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1))
	s.draws = make([]int, 1<<16)
	for i := range s.draws {
		if i%freshEvery == freshEvery-1 {
			s.draws[i] = -1 - (i/freshEvery)%len(hot)
		} else {
			s.draws[i] = perm[zipf.Uint64()]
		}
	}
	if s.pool, err = startPool(filepath.Join(s.cfg.dir, "store")); err != nil {
		return err
	}
	s.c = newClient()
	var next atomic.Int64
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(hot); i = int(next.Add(1)) - 1 {
				body, _, err := post(s.c, s.pool[0].addr, "/v2/run", hot[i].scenario)
				if err != nil {
					errs[w] = err
					return
				}
				s.bodies[i] = body
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// request returns schedule slot i's scenario, its task count and its
// hot-set index (-1 for a fresh key).
func (s *serveMixed) request(i int) ([]byte, int, int, error) {
	d := s.draws[i%len(s.draws)]
	if d >= 0 {
		return s.hot[d].scenario, s.hot[d].tasks, d, nil
	}
	h := s.hot[-1-d]
	sc := h.sc
	sc.Pricing = &wire.PricingSection{CPUPerHour: 0.1 + s.fresh + 1e-7*float64(i+1)}
	b, err := json.Marshal(sc)
	return b, h.tasks, -1, err
}

// verify checks a hot key's body against the first one served for it;
// fresh-key bodies are kept for the strict check after the run.
func (s *serveMixed) verify(slot, hot, tasks int, body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hot < 0 {
		s.extra[slot] = freshBody{body: body, tasks: tasks}
		return nil
	}
	if s.bodies[hot] == nil {
		s.bodies[hot] = body
		return nil
	}
	if !bytes.Equal(s.bodies[hot], body) {
		return fmt.Errorf("hot key %d served two different bodies", hot)
	}
	return nil
}

// openLoop sends slots [0, n) at rate per second from nproc
// workers, each request due at its scheduled time whether or not
// earlier ones have finished.  A request is timed from its due time
// when no worker was free then -- the wait a stall imposes on later
// requests -- and from its send time when a worker sat idle waiting
// for it, so the sleep timer's own overshoot (most of a millisecond on
// small hosts) is reported as generator lateness, not as latency.
func (s *serveMixed) openLoop(n int, rate float64) []sample {
	out := make([]sample, n)
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for slot := int(next.Add(1)) - 1; slot < n; slot = int(next.Add(1)) - 1 {
				due := start.Add(time.Duration(float64(slot) / rate * float64(time.Second)))
				scenario, tasks, hot, err := s.request(slot)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				smp := sample{slot: slot, due: due, sent: time.Now()}
				smp.from = due
				if !free.After(due) {
					smp.from = smp.sent
				}
				var body []byte
				if err == nil {
					body, smp.tier, err = post(s.c, s.pool[0].addr, "/v2/run", scenario)
				}
				smp.done = time.Now()
				free = smp.done
				if err == nil {
					err = s.verify(slot, hot, tasks, body)
				}
				smp.err, smp.body = err, body
				out[slot] = smp
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs nproc clients from slot on for d and returns how
// many requests they sent, how many failed, the completions per second
// of process CPU time, and the completion rate (the median of
// one-second windows).
// It skips fresh slots: capacity is that of the cached path (memory and
// store tiers), which misses waiting on store fsyncs would swamp.
func (s *serveMixed) closedLoop(from int, d time.Duration) (n, failed int, perCPU, rate float64) {
	var next, done, bad atomic.Int64
	next.Store(int64(from))
	start, cpu0 := time.Now(), cpuNow()
	finished := make([][]time.Time, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range finished {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				slot := int(next.Add(1)) - 1
				if s.draws[slot%len(s.draws)] < 0 {
					continue
				}
				scenario, tasks, hot, err := s.request(slot)
				var body []byte
				if err == nil {
					body, _, err = post(s.c, s.pool[0].addr, "/v2/run", scenario)
				}
				if err == nil {
					err = s.verify(slot, hot, tasks, body)
				}
				if err != nil {
					bad.Add(1)
					logFailure(err)
				} else {
					finished[w] = append(finished[w], time.Now())
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	used := cpuNow() - cpu0
	var events []time.Time
	for _, f := range finished {
		events = append(events, f...)
	}
	ones := make([]int, len(events))
	for i := range ones {
		ones[i] = 1
	}
	return int(done.Load()), int(bad.Load()), ratio(float64(len(events)), used.Seconds()), windowRate(start, events, ones)
}

func (s *serveMixed) run(d time.Duration) (*outcome, error) {
	out := &outcome{detail: map[string]any{}, layer: map[string]float64{}}
	fixed := time.Duration(float64(d) * fixedShare)
	n1 := int(math.Max(1, serveRate*fixed.Seconds()))
	cpu0 := cpuNow()
	phase1 := s.openLoop(n1, serveRate)
	out.cpuMS = ms(cpuNow()-cpu0) / float64(n1)

	// The open loop cannot pause for the reference kernel, so it is
	// measured between the phases.
	for i := 0; i < calibEdge; i++ {
		s.cfg.cal.sample()
	}
	// Capacity: nproc clients in a closed loop, each sending its next
	// request as soon as the last one is answered.
	capN, capFailed, capPerCPU, capRate := s.closedLoop(n1, d-fixed)
	out.attempted += capN
	out.failed += capFailed
	out.perCPU, out.throughput = capPerCPU, capRate

	// The fixed-rate phase gives the latency samples, tier shares and
	// generator lateness.
	tiers := map[string]int{}
	byTier := map[string]samples{}
	var late samples
	dg := newDigest()
	var pinned [][]byte
	for _, m := range phase1 {
		out.attempted++
		if m.err != nil {
			out.failed++
			logFailure(m.err)
			continue
		}
		out.latency = append(out.latency, m.done.Sub(m.from))
		late = append(late, m.sent.Sub(m.due))
		tiers[m.tier]++
		byTier[m.tier] = append(byTier[m.tier], m.done.Sub(m.from))
		if m.slot < digestPrefix {
			pinned = append(pinned, m.body)
		}
	}
	out.failed += s.checkBodies()
	if !s.cfg.small {
		sort.Slice(pinned, func(i, j int) bool { return bytes.Compare(pinned[i], pinned[j]) < 0 })
		for i, b := range pinned {
			if i == 0 || !bytes.Equal(b, pinned[i-1]) {
				dg.add(b)
			}
		}
		out.digest = dg.sum()
	}
	out.detail["fixed_rate_per_s"] = serveRate
	out.detail["generator_lateness_p99_ms"] = late.p99()
	out.detail["capacity_requests"] = capN
	tierLat := map[string][3]float64{}
	for t, l := range byTier {
		tierLat[t] = [3]float64{float64(len(l)), l.p50(), l.p99()}
	}
	out.detail["tier_n_p50_p99_ms"] = tierLat
	tierShares(out.layer, tiers, len(out.latency))

	m, err := scrapeSum(s.c, s.pool)
	if err != nil {
		return nil, err
	}
	for k, v := range serverLayer(m, m["reprosrv_simulations_total"], float64(s.distinctComputed())) {
		out.layer[k] = v
	}
	if tr := s.cfg.tr; tr != nil {
		rp, err := newReplayer(tr, filepath.Join(s.cfg.dir, "replay"))
		if err != nil {
			return nil, err
		}
		for _, m := range phase1 {
			if m.err != nil {
				continue
			}
			req := tr.request()
			root := tr.record(req, 0, "client", "request", m.from, m.done)
			srv := tr.record(req, root, "server", "POST /v2/run", m.sent, m.done)
			scenario, _, _, _ := s.request(m.slot)
			if err := rp.run(req, srv, scenario, m.tier, m.body); err != nil {
				out.failed++
				logFailure(err)
			}
		}
	}
	return out, nil
}

// checkBodies strictly checks every distinct body served, returning how
// many failed.
func (s *serveMixed) checkBodies() int {
	failed := 0
	for i, b := range s.bodies {
		if b == nil {
			continue
		}
		if err := checkRun(b, s.hot[i].tasks); err != nil {
			failed++
			logFailure(err)
		}
	}
	for _, f := range s.extra {
		if err := checkRun(f.body, f.tasks); err != nil {
			failed++
			logFailure(err)
		}
	}
	return failed
}

// distinctComputed is how many distinct keys the server had to
// compute: the pre-filled hot set plus every fresh key.
func (s *serveMixed) distinctComputed() int { return len(s.hot) + len(s.extra) }

func (s *serveMixed) probes() [][]byte {
	var in [][]byte
	for i := 0; i < len(s.hot) && i < 64; i++ {
		in = append(in, s.hot[i].scenario)
	}
	return in
}

func (s *serveMixed) close() error {
	if s.c != nil {
		s.c.CloseIdleConnections()
	}
	return stopPool(s.pool)
}
