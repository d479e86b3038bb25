package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"repro"
	"repro/internal/advisor"
	"repro/internal/datamgmt"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/units"
	"repro/wire"
)

// maxBodyBytes bounds request bodies; every request document is tiny.
const maxBodyBytes = 1 << 20

// writeJSON renders v as indented JSON.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing left to tell the client
}

// errorDoc is the wire form of a failure.
type errorDoc struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.metrics.errors.Add(1)
	// A client that hung up gets nothing; don't count its cancellation
	// as a server error status.
	if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
		return
	}
	writeJSON(w, status, errorDoc{Error: err.Error()})
}

// statusFor maps a handler error to an HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errBusy):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// decodeBody strictly decodes a bounded POST body: an unknown field
// anywhere in the document is a 400 with the offending name, never a
// silently ignored knob.
func decodeBody(r *http.Request, v any) error {
	if err := wire.DecodeStrict(http.MaxBytesReader(nil, r.Body, maxBodyBytes), v); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	return nil
}

// ---- POST /v1/run ----

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req repro.RunRequest
	if err := decodeBody(r, &req); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	// The legacy surface is a thin adapter: the request upgrades into a
	// v2 scenario inside Resolve, and only the v1 document shape (and
	// the v1 cache-key space) is preserved here.
	spec, plan, err := req.Resolve()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	body, tier, err := s.resolve(r.Context(), s.v1Point(spec, plan, 0))
	s.serveResult(w, r, body, tier, err)
}

// point is one deterministic simulation as the tier chain sees it: the
// cache key that names it, the scenario to relay when another replica
// owns the key (nil skips the peer tier: a /v1 point, or a run a peer
// already relayed, which must not forward again), and the compute tier
// that simulates it and encodes its canonical body.
type point struct {
	key     string
	relay   *wire.Scenario
	compute func(ctx context.Context) ([]byte, error)
}

// v1Point is the /v1/run of (spec, plan) in the v1 key space.  A
// ccr > 0 first rescales every file of the workflow to that CCR at the
// plan's bandwidth (the /v1/sweep ccrs axis, which also renames the
// workflow), under the run's key extended with the CCR.
func (s *Server) v1Point(spec repro.Spec, plan repro.Plan, ccr float64) point {
	key := repro.CanonicalRunKey(spec, plan)
	if ccr > 0 {
		key += fmt.Sprintf("|v1ccr=%g", ccr)
	}
	return point{key: key, compute: func(ctx context.Context) ([]byte, error) {
		res, err := s.simulate(ctx, spec, plan, ccr)
		if err != nil {
			return nil, err
		}
		return repro.NewRunDocument(res).Encode()
	}}
}

// resolve answers one deterministic simulation from the first tier that
// holds it -- memory LRU, disk store, owning peer, compute -- and names
// that tier: hit, store, peer or miss.  Determinism makes every tier
// byte-identical to a cold run, so which tier answers is pure economics:
// memory is free, a disk read is cheap, a peer hop costs a LAN round
// trip, and a simulation costs seconds of CPU.
//
// Runs and grid points all resolve here.  Everything past the memory
// lookup runs inside the flight group, so a herd of identical requests
// costs one of whichever tier answers, and every follower names the
// tier that answered.  Only compute takes a worker slot; nothing holds
// one while it waits on a flight.  A store or peer failure degrades to
// the next tier, never to an error.
func (s *Server) resolve(ctx context.Context, p point) ([]byte, string, error) {
	if body, ok := s.cache.Get(p.key); ok {
		return body, "hit", nil
	}
	a, shared, err := s.flights.Do(ctx, p.key, func(ctx context.Context) (answer, error) {
		if s.store != nil {
			if body, ok := s.store.Get(p.key); ok {
				s.cache.Put(p.key, body)
				return answer{body, "store"}, nil
			}
		}
		if p.relay != nil && s.ring != nil {
			if owner := s.ring.Owner(wire.KeyHash(p.key)); owner != s.self {
				s.metrics.peerFetches.Add(1)
				raw, err := json.Marshal(p.relay)
				var body []byte
				if err == nil {
					body, err = s.relay.Run(ctx, owner, raw)
				}
				if err == nil {
					// A garbled 200 is a peer failure like any other.
					err = wire.DecodeStrict(bytes.NewReader(body), new(wire.RunDocumentV2))
				}
				if err == nil {
					s.cache.Put(p.key, body)
					return answer{body, "peer"}, nil
				}
				// The owner is down, slow or garbled: compute here.  The
				// result is byte-identical either way; only the pool's
				// cache locality suffers, which the counter makes visible.
				s.metrics.peerFailures.Add(1)
			}
		}
		release, err := s.admit(ctx)
		if err != nil {
			return answer{}, err
		}
		defer release()
		if s.testHookPreSim != nil {
			s.testHookPreSim()
		}
		s.metrics.simulations.Add(1)
		body, err := p.compute(ctx)
		if err != nil {
			return answer{}, err
		}
		s.cache.Put(p.key, body)
		if s.store != nil {
			s.store.Put(p.key, body) //nolint:errcheck // a failed persist only costs a future recompute
		}
		return answer{body, "miss"}, nil
	})
	if shared {
		s.metrics.coalesced.Add(1)
	}
	return a.body, a.tier, err
}

// resolveGrid resolves every grid point through the tier chain on the
// sweep engine's GOMAXPROCS pool and hands each body to emit in grid
// order, as soon as it and every earlier point are done.  This is the
// one grid path of the server: /v1/sweep, /v2/sweep and both advisors
// run here, so a point coalesces with an identical run or point, and
// only a point that computes takes a worker slot.  Canceling ctx (the
// client hanging up) drains the whole grid.
func (s *Server) resolveGrid(ctx context.Context, grid []point, emit func(i int, body []byte) error) error {
	return sweep.Stream(ctx, 0, grid, func(ctx context.Context, i int, p point) ([]byte, error) {
		if s.testHookSweepPoint != nil {
			if err := s.testHookSweepPoint(i); err != nil {
				return nil, err
			}
		}
		body, _, err := s.resolve(ctx, p)
		return body, err
	}, emit)
}

// serveResult writes one canonical result body, naming the tier that
// answered in X-Cache, or the error that stopped it.
func (s *Server) serveResult(w http.ResponseWriter, r *http.Request, body []byte, tier string, err error) {
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", tier)
	w.Write(body) //nolint:errcheck
}

// streamNDJSON answers with an NDJSON stream under the protocol every
// stream here shares.  produce writes each row line (one JSON document
// and its newline) through emit, which flushes it to the client, and
// returns the payload of the terminal done line.  The stream then ends
// in one of three ways, so a client can always tell what it read:
//
//	HTTP error status      produce failed before any row
//	{"error": "..."}       produce failed mid-stream (omitted when the
//	                       client has gone)
//	{"done": {...}}        success
//
// The terminal line is the truncation detector -- the HTTP status line
// is long gone by the time a mid-stream row fails, so a stream that
// ends without "done" or "error" was cut off.
func (s *Server) streamNDJSON(w http.ResponseWriter, r *http.Request, produce func(emit func(line []byte) error) (done any, err error)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	rows := 0
	done, err := produce(func(line []byte) error {
		if _, err := w.Write(line); err != nil {
			return err
		}
		rows++
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	enc := json.NewEncoder(w)
	if err != nil {
		if rows == 0 {
			s.fail(w, r, statusFor(err), err)
			return
		}
		s.metrics.errors.Add(1)
		if r.Context().Err() == nil {
			enc.Encode(streamEnd{Error: err.Error()}) //nolint:errcheck
		}
		return
	}
	enc.Encode(streamEnd{Done: done}) //nolint:errcheck
}

// streamEnd is the terminal line of an NDJSON stream; exactly one field
// is set.
type streamEnd struct {
	Done  any    `json:"done,omitempty"`
	Error string `json:"error,omitempty"`
}

// rowLine renders one {"row": ...} line of an NDJSON stream.
func rowLine(row any) ([]byte, error) {
	b, err := json.Marshal(struct {
		Row any `json:"row"`
	}{row})
	return append(b, '\n'), err
}

// ---- POST /v1/sweep ----

// SweepRequest is the wire form of a grid request: a base run plus up
// to three axes.  The grid is the cross product in processors x modes x
// CCRs order; an absent axis contributes the base plan's single value.
type SweepRequest struct {
	repro.RunRequest
	Processors []int     `json:"processors,omitempty"`
	Modes      []string  `json:"modes,omitempty"`
	CCRs       []float64 `json:"ccrs,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(r, &req); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	spec, plan, err := req.Resolve()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	procsAxis := req.Processors
	if len(procsAxis) == 0 {
		procsAxis = []int{plan.Processors}
	}
	ccrAxis := req.CCRs
	if len(ccrAxis) == 0 {
		ccrAxis = []float64{0}
	}
	// Bound the cross product before building it: a 1 MB body can name
	// billions of points.
	if len(procsAxis)*max(len(req.Modes), 1)*len(ccrAxis) > wire.MaxGridPoints {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("server: sweep grid exceeds %d points", wire.MaxGridPoints))
		return
	}
	modesAxis := []datamgmt.Mode{plan.Mode}
	if len(req.Modes) > 0 {
		modesAxis = modesAxis[:0]
		for _, m := range req.Modes {
			mode, err := datamgmt.ParseMode(m)
			if err != nil {
				s.fail(w, r, http.StatusBadRequest, err)
				return
			}
			modesAxis = append(modesAxis, mode)
		}
	}
	grid := make([]point, 0, len(procsAxis)*len(modesAxis)*len(ccrAxis))
	for _, procs := range procsAxis {
		if procs < 0 {
			s.fail(w, r, http.StatusBadRequest, fmt.Errorf("server: negative processor count %d", procs))
			return
		}
		for _, mode := range modesAxis {
			for _, ccr := range ccrAxis {
				if ccr < 0 {
					s.fail(w, r, http.StatusBadRequest, fmt.Errorf("server: negative CCR %v", ccr))
					return
				}
				p := plan
				p.Processors, p.Mode = procs, mode
				grid = append(grid, s.v1Point(spec, p, ccr))
			}
		}
	}

	// A ccr == 0 point is its plan's /v1/run, cache entry included.  A
	// row splices the body of whichever tier answered, with a positive
	// CCR (the innermost axis) leading the document's fields.
	s.streamNDJSON(w, r, func(emit func([]byte) error) (any, error) {
		err := s.resolveGrid(r.Context(), grid, func(i int, body []byte) error {
			if ccr := ccrAxis[i%len(ccrAxis)]; ccr > 0 {
				num, err := json.Marshal(ccr)
				if err != nil {
					return err
				}
				body = slices.Concat([]byte(`{"ccr":`), num, []byte{','}, body[1:])
			}
			line, err := wire.AppendSweepRow(nil, i, body)
			if err != nil {
				return err
			}
			return emit(line)
		})
		return &wire.SweepDone{Rows: len(grid)}, err
	})
}

// ---- GET /v1/experiments and /v1/experiments/{name} ----

// experimentDoc is one registry entry on the wire.
type experimentDoc struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// tableDoc is one rendered result table on the wire.
type tableDoc struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func tableDocs(tables []*report.Table) []tableDoc {
	docs := make([]tableDoc, len(tables))
	for i, t := range tables {
		docs[i] = tableDoc{Title: t.Title, Columns: t.Columns, Rows: t.Rows}
	}
	return docs
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	reg := experiments.Registry()
	docs := make([]experimentDoc, len(reg))
	for i, e := range reg {
		docs[i] = experimentDoc{Name: e.Name, Description: e.Description}
	}
	writeJSON(w, http.StatusOK, docs)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := experiments.Lookup(name); !ok {
		s.fail(w, r, http.StatusNotFound, fmt.Errorf("server: unknown experiment %q", name))
		return
	}
	var params experiments.Params
	if seedStr := r.URL.Query().Get("seed"); seedStr != "" {
		seed, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, fmt.Errorf("server: bad seed %q: %w", seedStr, err))
			return
		}
		params.Seed = &seed
	}
	release, err := s.admit(r.Context())
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	defer release()
	tables, err := experiments.Run(r.Context(), name, params)
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Name   string     `json:"name"`
		Tables []tableDoc `json:"tables"`
	}{Name: name, Tables: tableDocs(tables)})
}

// ---- GET /v1/advisor ----

// advisorOption is one provisioning choice on the wire.
type advisorOption struct {
	Processors  int     `json:"processors"`
	CostDollars float64 `json:"cost_dollars"`
	Hours       float64 `json:"hours"`
}

func toAdvisorOption(o advisor.Option) advisorOption {
	return advisorOption{Processors: o.Processors, CostDollars: o.Cost.Dollars(), Hours: o.Time.Hours()}
}

func toAdvisorOptions(opts []advisor.Option) []advisorOption {
	out := make([]advisorOption, len(opts))
	for i, o := range opts {
		out[i] = toAdvisorOption(o)
	}
	return out
}

// advisorDoc is an advisor response.  C is the wire shape of a picked
// option: advisorOption on /v1, advisorChoiceV2 (with its scenario) on
// /v2.  A pick is absent when no option qualifies.
type advisorDoc[C any] struct {
	Workflow    string          `json:"workflow"`
	Options     []advisorOption `json:"options"`
	Pareto      []advisorOption `json:"pareto"`
	Recommended *C              `json:"recommended,omitempty"`
	Cheapest    *C              `json:"cheapest_within_deadline,omitempty"`
	Fastest     *C              `json:"fastest_under_budget,omitempty"`
}

// advisorQuery is the parsed, validated form of an advisor request,
// shared by the v1 and v2 handlers.
type advisorQuery struct {
	spec     repro.Spec
	plan     repro.Plan
	procs    []int
	slack    float64
	deadline *units.Duration
	budget   *units.Money
}

// parseAdvisorQuery validates every parameter before any sweep runs: a
// malformed deadline or budget must cost a 400, not a full exploration.
func parseAdvisorQuery(r *http.Request) (advisorQuery, error) {
	q := r.URL.Query()
	req := repro.RunRequest{
		Workflow: q.Get("workflow"),
		Mode:     q.Get("mode"),
		Billing:  "provisioned",
	}
	if req.Workflow == "" {
		return advisorQuery{}, fmt.Errorf("server: advisor needs ?workflow= (1deg, 2deg or 4deg)")
	}
	spec, plan, err := req.Resolve()
	if err != nil {
		return advisorQuery{}, err
	}
	out := advisorQuery{spec: spec, plan: plan, procs: repro.GeometricProcessors(), slack: 0.10}
	if list := q.Get("processors"); list != "" {
		if strings.Count(list, ",") >= wire.MaxGridPoints {
			return advisorQuery{}, fmt.Errorf("server: processor list exceeds %d sizes", wire.MaxGridPoints)
		}
		out.procs = out.procs[:0]
		for _, field := range strings.Split(list, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || n <= 0 {
				return advisorQuery{}, fmt.Errorf("server: bad processor list %q", list)
			}
			out.procs = append(out.procs, n)
		}
	}
	if v := q.Get("slack"); v != "" {
		if out.slack, err = strconv.ParseFloat(v, 64); err != nil || out.slack < 0 {
			return advisorQuery{}, fmt.Errorf("server: bad slack %q", v)
		}
	}
	if v := q.Get("deadline_hours"); v != "" {
		hours, err := strconv.ParseFloat(v, 64)
		if err != nil || hours <= 0 {
			return advisorQuery{}, fmt.Errorf("server: bad deadline_hours %q", v)
		}
		d := units.Duration(hours * units.SecondsPerHour)
		out.deadline = &d
	}
	if v := q.Get("budget"); v != "" {
		dollars, err := strconv.ParseFloat(v, 64)
		if err != nil || dollars < 0 {
			return advisorQuery{}, fmt.Errorf("server: bad budget %q", v)
		}
		b := units.Money(dollars)
		out.budget = &b
	}
	return out, nil
}

// scenario is the v2 scenario of the advisor's query on n processors:
// the run that measures that option and the one /v2/advisor echoes.
func (aq advisorQuery) scenario(n int) wire.Scenario {
	plan := aq.plan
	plan.Processors = n
	return wire.EchoScenario(aq.spec, plan)
}

// advise answers an advisor request on either surface.  Every pool
// size is measured as the v2 run of the scenario the query echoes for
// it, through the tier chain, so an option is cached, coalesced and
// counted like that run, and POSTing a pick's scenario to /v2/run finds
// it cached.  choice renders each picked option.
func advise[C any](s *Server, w http.ResponseWriter, r *http.Request, choice func(aq advisorQuery, o advisor.Option) C) {
	aq, err := parseAdvisorQuery(r)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	grid := make([]point, len(aq.procs))
	for i, n := range aq.procs {
		sc := aq.scenario(n)
		spec, plan, err := sc.Resolve()
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, err)
			return
		}
		grid[i] = s.v2Point(spec, plan, &sc)
	}
	opts := make([]advisor.Option, len(grid))
	err = s.resolveGrid(r.Context(), grid, func(i int, body []byte) error {
		var doc wire.RunDocumentV2
		if err := wire.DecodeStrict(bytes.NewReader(body), &doc); err != nil {
			return err
		}
		opts[i] = advisor.Option{Processors: aq.procs[i], Cost: doc.Total, Time: doc.Metrics.ExecTime}
		return nil
	})
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	pick := func(o advisor.Option, err error) *C {
		if err != nil {
			return nil
		}
		c := choice(aq, o)
		return &c
	}
	doc := advisorDoc[C]{
		Workflow:    aq.spec.Name,
		Options:     toAdvisorOptions(opts),
		Pareto:      toAdvisorOptions(advisor.ParetoFrontier(opts)),
		Recommended: pick(advisor.Recommend(opts, aq.slack)),
	}
	if aq.deadline != nil {
		doc.Cheapest = pick(advisor.CheapestWithin(opts, *aq.deadline))
	}
	if aq.budget != nil {
		doc.Fastest = pick(advisor.FastestUnder(opts, *aq.budget))
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleAdvisor(w http.ResponseWriter, r *http.Request) {
	advise(s, w, r, func(_ advisorQuery, o advisor.Option) advisorOption { return toAdvisorOption(o) })
}

// ---- GET /healthz and /metrics ----

// healthCache reports one cache's occupancy on /healthz.
type healthCache struct {
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		Status        string       `json:"status"`
		Version       string       `json:"version"`
		UptimeSeconds float64      `json:"uptime_seconds"`
		ResultCache   healthCache  `json:"result_cache"`
		WorkflowCache healthCache  `json:"workflow_cache"`
		Store         *healthStore `json:"store,omitempty"`
	}{
		Status:        "ok",
		Version:       s.metrics.version,
		UptimeSeconds: s.metrics.uptime().Seconds(),
		ResultCache:   healthCache{Entries: s.cache.Stats().Entries, Capacity: s.cfg.CacheEntries},
		WorkflowCache: healthCache{Entries: s.wfCache.Stats().Entries, Capacity: s.cfg.WorkflowCacheEntries},
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &healthStore{Entries: st.Entries, Bytes: st.Bytes, MaxBytes: st.MaxBytes, Dir: st.Dir}
	}
	writeJSON(w, http.StatusOK, resp)
}

// healthStore is the /healthz block describing the disk store; present
// only when a store directory is configured.
type healthStore struct {
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
	MaxBytes int64  `json:"max_bytes"`
	Dir      string `json:"dir"`
}

// storeStats snapshots the disk store, or a zero Stats when the store
// is disabled; metric families are emitted either way so the exposition
// schema is identical across configurations.
func (s *Server) storeStats() store.Stats {
	if s.store == nil {
		return store.Stats{}
	}
	return s.store.Stats()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, s.cache.Stats(), s.wfCache.Stats(), s.storeStats())
}
