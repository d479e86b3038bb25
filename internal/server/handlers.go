package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro"
	"repro/internal/advisor"
	"repro/internal/dag"
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
	body, tier, err := s.resolve(r.Context(), repro.CanonicalRunKey(spec, plan), nil, func(ctx context.Context) ([]byte, error) {
		res, err := s.simulate(ctx, spec, plan)
		if err != nil {
			return nil, err
		}
		return repro.NewRunDocument(res).Encode()
	})
	s.serveResult(w, r, body, tier, err)
}

// simulate generates spec's workflow through the bounded memo and runs
// plan on it.
func (s *Server) simulate(ctx context.Context, spec repro.Spec, plan repro.Plan) (repro.Result, error) {
	wf, err := s.wfCache.GenerateContext(ctx, spec)
	if err != nil {
		return repro.Result{}, err
	}
	return repro.RunContext(ctx, wf, plan)
}

// resolve answers one deterministic simulation from the first tier that
// holds it -- memory LRU, disk store, owning peer, compute -- and names
// that tier: hit, store, peer or miss.  Determinism makes every tier
// byte-identical to a cold run, so which tier answers is pure economics:
// memory is free, a disk read is cheap, a peer hop costs a LAN round
// trip, and a simulation costs seconds of CPU.
//
// Runs and sweep points all resolve here.  Everything past the memory
// lookup runs inside the flight group, so a herd of identical requests
// costs one of whichever tier answers, and every follower names the
// tier that answered.  Only compute takes a worker slot; nothing holds
// one while it waits on a flight.  sc is the scenario to relay when
// another replica owns key; nil skips the peer tier (a /v1 request, or
// one a peer already relayed, which must not forward again).  A store
// or peer failure degrades to the next tier, never to an error.
func (s *Server) resolve(ctx context.Context, key string, sc *wire.Scenario, compute func(ctx context.Context) ([]byte, error)) ([]byte, string, error) {
	if body, ok := s.cache.Get(key); ok {
		return body, "hit", nil
	}
	a, shared, err := s.flights.Do(ctx, key, func(ctx context.Context) (answer, error) {
		if s.store != nil {
			if body, ok := s.store.Get(key); ok {
				s.cache.Put(key, body)
				return answer{body, "store"}, nil
			}
		}
		if sc != nil && s.ring != nil {
			if owner := s.ring.Owner(wire.KeyHash(key)); owner != s.self {
				s.metrics.peerFetches.Add(1)
				raw, err := json.Marshal(sc)
				var body []byte
				if err == nil {
					body, err = s.relay.Run(ctx, owner, raw)
				}
				if err == nil {
					// A garbled 200 is a peer failure like any other.
					err = wire.DecodeStrict(bytes.NewReader(body), new(wire.RunDocumentV2))
				}
				if err == nil {
					s.cache.Put(key, body)
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
		body, err := compute(ctx)
		if err != nil {
			return answer{}, err
		}
		s.cache.Put(key, body)
		if s.store != nil {
			s.store.Put(key, body) //nolint:errcheck // a failed persist only costs a future recompute
		}
		return answer{body, "miss"}, nil
	})
	if shared {
		s.metrics.coalesced.Add(1)
	}
	return a.body, a.tier, err
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

// sweepRow is one grid point's result within a /v1/sweep stream.
type sweepRow struct {
	Index int     `json:"index"`
	CCR   float64 `json:"ccr,omitempty"`
	repro.RunDocument
}

type gridPoint struct {
	procs int
	mode  datamgmt.Mode
	ccr   float64 // 0 means "leave the workflow's CCR alone"
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
	ccrAxis := req.CCRs
	if len(ccrAxis) == 0 {
		ccrAxis = []float64{0}
	}
	var grid []gridPoint
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
				grid = append(grid, gridPoint{procs: procs, mode: mode, ccr: ccr})
			}
		}
	}

	// A sweep holds one worker slot; its grid fans out on the sweep
	// engine's own GOMAXPROCS pool, like every nested sweep in the repo.
	release, err := s.admit(r.Context())
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	defer release()
	wf, err := s.wfCache.GenerateContext(r.Context(), spec)
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	// Rescale once per distinct CCR, not once per grid point: the scaled
	// workflow is independent of the processor and mode axes, and cloning
	// a multi-thousand-task DAG per point is pure waste.
	scaledByCCR := make(map[float64]*dag.Workflow)
	for _, ccr := range ccrAxis {
		if ccr == 0 {
			continue
		}
		if _, ok := scaledByCCR[ccr]; ok {
			continue
		}
		scaled, err := wf.RescaleCCR(ccr, plan.Bandwidth)
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, err)
			return
		}
		scaledByCCR[ccr] = scaled
	}

	// Rows stream in grid order as soon as each point (and every earlier
	// one) finishes; r.Context() cancellation -- the client hanging up --
	// drains the whole grid.
	s.streamNDJSON(w, r, func(emit func([]byte) error) (any, error) {
		err := sweep.Stream(r.Context(), 0, grid,
			func(ctx context.Context, i int, p gridPoint) (repro.RunDocument, error) {
				if s.testHookSweepPoint != nil {
					if err := s.testHookSweepPoint(i); err != nil {
						return repro.RunDocument{}, err
					}
				}
				pointPlan := plan
				pointPlan.Processors = p.procs
				pointPlan.Mode = p.mode
				pointWf := wf
				if p.ccr > 0 {
					pointWf = scaledByCCR[p.ccr]
				}
				res, err := repro.RunContext(ctx, pointWf, pointPlan)
				if err != nil {
					return repro.RunDocument{}, err
				}
				return repro.NewRunDocument(res), nil
			},
			func(i int, doc repro.RunDocument) error {
				line, err := rowLine(sweepRow{Index: i, CCR: grid[i].ccr, RunDocument: doc})
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

func toAdvisorOptions(opts []advisor.Option) []advisorOption {
	out := make([]advisorOption, len(opts))
	for i, o := range opts {
		out[i] = advisorOption{Processors: o.Processors, CostDollars: o.Cost.Dollars(), Hours: o.Time.Hours()}
	}
	return out
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

// explore runs the advisor's provisioning sweep inside a worker slot.
// The boolean reports success; on failure the response is written.
func (s *Server) explore(w http.ResponseWriter, r *http.Request) (advisorQuery, []advisor.Option, bool) {
	aq, err := parseAdvisorQuery(r)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return advisorQuery{}, nil, false
	}
	release, err := s.admit(r.Context())
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return advisorQuery{}, nil, false
	}
	defer release()
	wf, err := s.wfCache.GenerateContext(r.Context(), aq.spec)
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return advisorQuery{}, nil, false
	}
	opts, err := advisor.Explore(r.Context(), wf, aq.procs, aq.plan)
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return advisorQuery{}, nil, false
	}
	return aq, opts, true
}

func (s *Server) handleAdvisor(w http.ResponseWriter, r *http.Request) {
	aq, opts, ok := s.explore(w, r)
	if !ok {
		return
	}
	spec, slack, deadline, budget := aq.spec, aq.slack, aq.deadline, aq.budget
	resp := struct {
		Workflow    string          `json:"workflow"`
		Options     []advisorOption `json:"options"`
		Pareto      []advisorOption `json:"pareto"`
		Recommended *advisorOption  `json:"recommended,omitempty"`
		Cheapest    *advisorOption  `json:"cheapest_within_deadline,omitempty"`
		Fastest     *advisorOption  `json:"fastest_under_budget,omitempty"`
	}{
		Workflow: spec.Name,
		Options:  toAdvisorOptions(opts),
		Pareto:   toAdvisorOptions(advisor.ParetoFrontier(opts)),
	}
	if rec, err := advisor.Recommend(opts, slack); err == nil {
		o := advisorOption{Processors: rec.Processors, CostDollars: rec.Cost.Dollars(), Hours: rec.Time.Hours()}
		resp.Recommended = &o
	}
	if deadline != nil {
		if o, err := advisor.CheapestWithin(opts, *deadline); err == nil {
			d := advisorOption{Processors: o.Processors, CostDollars: o.Cost.Dollars(), Hours: o.Time.Hours()}
			resp.Cheapest = &d
		}
	}
	if budget != nil {
		if o, err := advisor.FastestUnder(opts, *budget); err == nil {
			d := advisorOption{Processors: o.Processors, CostDollars: o.Cost.Dollars(), Hours: o.Time.Hours()}
			resp.Fastest = &d
		}
	}
	writeJSON(w, http.StatusOK, resp)
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
