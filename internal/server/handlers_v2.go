package server

// The /v2 surface: every endpoint speaks the declarative ScenarioSpec
// (wire.Scenario) instead of the flat v1 request.  /v2/run caches and
// coalesces exactly like /v1/run (in a disjoint key space, since the
// document shapes differ); /v2/sweep generalizes the fixed three-axis
// v1 grid into any-scenario-path axes; /v2/advisor returns each
// recommendation as a ready-to-POST scenario; and /v2/experiments
// accepts experiment parameters -- including a full scenario grid -- as
// a POST body.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro"
	"repro/internal/advisor"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/wire"
)

// ---- POST /v2/run ----

func (s *Server) handleRunV2(w http.ResponseWriter, r *http.Request) {
	var sc wire.Scenario
	if err := decodeBody(r, &sc); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	spec, plan, err := sc.Resolve()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	// Traced runs bypass the result cache entirely: timeline-bearing
	// documents would bloat the LRU, and the cache key deliberately
	// ignores the trace knob so untraced requests keep hitting the
	// byte-identical cached body.
	if sc.Trace {
		s.serveTracedRun(w, r, spec, plan)
		return
	}
	var relay *wire.Scenario
	if r.Header.Get(shard.RelayHeader) == "" {
		relay = &sc
	}
	body, tier, err := s.resolve(r.Context(), s.v2Point(spec, plan, relay))
	s.serveResult(w, r, body, tier, err)
}

// v2Point is the /v2/run of (spec, plan): the v2 key space, the
// canonical v2 document, and relay as the scenario an owning peer runs.
func (s *Server) v2Point(spec repro.Spec, plan repro.Plan, relay *wire.Scenario) point {
	return point{key: wire.CanonicalRunKeyV2(spec, plan), relay: relay, compute: func(ctx context.Context) ([]byte, error) {
		res, err := s.simulate(ctx, spec, plan, 0)
		if err != nil {
			return nil, err
		}
		return wire.NewRunDocumentV2(spec, res).Encode()
	}}
}

// runTraced executes one flight-recorded simulation inside a worker
// slot and returns the result together with its recorder.  Shared by
// the POST trace bypass and the GET trace stream.
func (s *Server) runTraced(r *http.Request, spec repro.Spec, plan repro.Plan) (repro.Result, *obs.Recorder, error) {
	release, err := s.admit(r.Context())
	if err != nil {
		return repro.Result{}, nil, err
	}
	defer release()
	rec := obs.NewRecorder(0)
	plan.Recorder = rec
	s.metrics.simulations.Add(1)
	res, err := s.simulate(r.Context(), spec, plan, 0)
	if err != nil {
		return repro.Result{}, nil, err
	}
	return res, rec, nil
}

// serveTracedRun answers a trace:true POST /v2/run with the full traced
// document (timeline and critical path inline).
func (s *Server) serveTracedRun(w http.ResponseWriter, r *http.Request, spec repro.Spec, plan repro.Plan) {
	res, rec, err := s.runTraced(r, spec, plan)
	var body []byte
	if err == nil {
		body, err = wire.NewTracedRunDocumentV2(spec, res, rec).Encode()
	}
	s.serveResult(w, r, body, "bypass", err)
}

// ---- GET /v2/run ----

// handleRunTraceV2 streams a traced run's timeline as NDJSON: one
// {"event": ...} line per flight-recorder event in causal order, then a
// terminal {"done": ...} envelope carrying the event count, the
// critical-path summary and the run's bottom line.  The scenario rides
// the ?scenario= query parameter (URL-encoded JSON); its trace field is
// implied by the route.
func (s *Server) handleRunTraceV2(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("scenario")
	if raw == "" {
		s.fail(w, r, http.StatusBadRequest,
			fmt.Errorf("server: GET /v2/run needs a ?scenario= query parameter (URL-encoded scenario JSON)"))
		return
	}
	var sc wire.Scenario
	if err := wire.DecodeStrict(strings.NewReader(raw), &sc); err != nil {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("server: bad scenario: %w", err))
		return
	}
	spec, plan, err := sc.Resolve()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	res, rec, err := s.runTraced(r, spec, plan)
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	events := rec.Events()
	for i := range events {
		if err := enc.Encode(wire.TraceEnvelope{Event: &events[i]}); err != nil {
			return // client hung up mid-stream; nothing left to tell it
		}
		if flusher != nil && i%256 == 255 {
			flusher.Flush()
		}
	}
	enc.Encode(wire.TraceEnvelope{Done: &wire.TraceDone{ //nolint:errcheck
		Events:       len(events),
		Dropped:      rec.Dropped(),
		CriticalPath: obs.CriticalPath(events, wire.CriticalPathTopK),
		Total:        res.Cost.Total(),
	}})
}

// ---- POST /v2/sweep ----

func (s *Server) handleSweepV2(w http.ResponseWriter, r *http.Request) {
	var req wire.SweepRequest
	if err := decodeBody(r, &req); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	// Every point resolves before the first row streams, so a malformed
	// combination is a clean 400 instead of a mid-stream error envelope.
	grid, err := req.ResolveGrid()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}

	points := make([]point, len(grid))
	for i := range grid {
		points[i] = s.v2Point(grid[i].Spec, grid[i].Plan, &grid[i].Scenario)
	}
	// Each point is the /v2/run of its scenario; a row streams the
	// canonical body of whichever tier answered, spliced, not re-encoded.
	s.streamNDJSON(w, r, func(emit func([]byte) error) (any, error) {
		err := s.resolveGrid(r.Context(), points, func(i int, body []byte) error {
			line, err := wire.AppendSweepRow(nil, i, body)
			if err != nil {
				return err
			}
			return emit(line)
		})
		return &wire.SweepDone{Rows: len(points)}, err
	})
}

// ---- GET /v2/advisor ----

// advisorChoiceV2 is one provisioning choice with the scenario that
// reproduces it: the recommendation is directly POSTable to /v2/run.
type advisorChoiceV2 struct {
	Processors  int           `json:"processors"`
	CostDollars float64       `json:"cost_dollars"`
	Hours       float64       `json:"hours"`
	Scenario    wire.Scenario `json:"scenario"`
}

func (s *Server) handleAdvisorV2(w http.ResponseWriter, r *http.Request) {
	advise(s, w, r, func(aq advisorQuery, o advisor.Option) advisorChoiceV2 {
		return advisorChoiceV2{
			Processors:  o.Processors,
			CostDollars: o.Cost.Dollars(),
			Hours:       o.Time.Hours(),
			Scenario:    aq.scenario(o.Processors),
		}
	})
}

// ---- POST /v2/experiments/{name} ----

// experimentParamsDoc is the POST body of a v2 experiment invocation:
// the wire form of experiments.Params.  (policy-tournament has its own
// POST route streaming NDJSON; scenario/bundles here serve any future
// table-shaped policy experiments.)
type experimentParamsDoc struct {
	Seed     *int64                 `json:"seed,omitempty"`
	Grid     *wire.SweepRequest     `json:"grid,omitempty"`
	Scenario *wire.Scenario         `json:"scenario,omitempty"`
	Bundles  []wire.PoliciesSection `json:"bundles,omitempty"`
}

func (s *Server) handleExperimentV2(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := experiments.Lookup(name); !ok {
		s.fail(w, r, http.StatusNotFound, fmt.Errorf("server: unknown experiment %q", name))
		return
	}
	var doc experimentParamsDoc
	if r.ContentLength != 0 {
		if err := decodeBody(r, &doc); err != nil {
			s.fail(w, r, http.StatusBadRequest, err)
			return
		}
	}
	release, err := s.admit(r.Context())
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	defer release()
	tables, err := experiments.Run(r.Context(), name, experiments.Params{
		Seed: doc.Seed, Grid: doc.Grid, Scenario: doc.Scenario, Bundles: doc.Bundles,
	})
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Name   string     `json:"name"`
		Tables []tableDoc `json:"tables"`
	}{Name: name, Tables: tableDocs(tables)})
}

// ---- POST /v2/experiments/policy-tournament ----

// handleTournamentV2 streams a policy tournament as NDJSON: one row per
// bundle in entry order, then a terminal done envelope carrying the
// ranking (best bundle first).  The exact-path route wins over the
// generic POST /v2/experiments/{name} handler.
func (s *Server) handleTournamentV2(w http.ResponseWriter, r *http.Request) {
	var req wire.TournamentRequest
	if r.ContentLength != 0 {
		if err := decodeBody(r, &req); err != nil {
			s.fail(w, r, http.StatusBadRequest, err)
			return
		}
	}
	base := experiments.DefaultTournamentScenario()
	if req.Scenario != nil {
		base = *req.Scenario
	}
	bundles := experiments.DefaultTournamentBundles()
	if len(req.Bundles) > 0 {
		bundles = req.Bundles
	}
	if req.Seed != nil {
		base = experiments.ReseedSpot(base, *req.Seed)
	}
	// Every entry resolves before the first row streams, so a malformed
	// bundle is a clean 400 instead of a mid-stream error envelope.
	if _, err := experiments.TournamentEntries(base, bundles); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}

	release, err := s.admit(r.Context())
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	defer release()

	s.streamNDJSON(w, r, func(emit func([]byte) error) (any, error) {
		var rows []experiments.TournamentRow
		err := experiments.TournamentStream(r.Context(), base, bundles, func(row experiments.TournamentRow) error {
			line, err := rowLine(wire.TournamentRow{
				Index:         row.Entry.Index,
				Bundle:        row.Entry.Bundle,
				RunDocumentV2: wire.NewRunDocumentV2(row.Entry.Spec, row.Result),
			})
			if err == nil {
				err = emit(line)
			}
			if err != nil {
				return err
			}
			rows = append(rows, row)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return &wire.TournamentDone{Rows: len(rows), Ranking: experiments.RankTournament(rows)}, nil
	})
}
