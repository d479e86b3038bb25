package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/montage"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/wire"
)

// presetScenarios is the paper's presets in every storage mode, the
// scenarios the figures are built from.
func presetScenarios() [][]byte {
	var in [][]byte
	for _, wf := range []string{"1deg", "2deg", "4deg"} {
		for _, mode := range []string{"remote-io", "regular", "cleanup"} {
			b, _ := json.Marshal(wire.Scenario{Version: wire.Version,
				Workflow: wire.WorkflowSection{Name: wf}, Storage: &wire.StorageSection{Mode: mode}})
			in = append(in, b)
		}
	}
	return in
}

// layers lists the layers whose share of the traced run is reported.
var layers = []string{"core", "dag", "experiments", "montage", "report", "server", "shard", "store", "sweep", "wire"}

// runLayerNames are the per-layer counts and shares a run observes.
var runLayerNames = []string{
	"server.hit_share", "server.store_share", "server.peer_share", "server.miss_share",
	"server.coalesced", "server.rejected", "server.sims_per_key",
	"store.hit_ratio", "store.writes",
	"shard.remote_share", "shard.peer_fetches", "shard.peer_failures",
	"montage.cache_hit_ratio",
}

// perLayerNames is every per-layer metric, in a stable order.
func perLayerNames() []string {
	var names []string
	for _, l := range layers {
		names = append(names, l+".share")
	}
	names = append(names, runLayerNames...)
	names = append(names, "montage.generate_ms")
	for _, d := range ladder {
		names = append(names, fmt.Sprintf("montage.ns_per_task_%gdeg", d))
	}
	names = append(names, "dag.build_ns_per_task", "dag.finalize_ms", "dag.files_us")
	for _, d := range ladder {
		names = append(names, fmt.Sprintf("core.ns_per_task_%gdeg", d))
	}
	names = append(names, "core.run_ms_4deg")
	for _, e := range experiments.Registry() {
		names = append(names, "experiments."+e.Name+"_ms")
	}
	names = append(names, "report.render_ms",
		"wire.decode_us", "wire.key_us", "wire.encode_us",
		"store.get_us", "store.put_ms",
		"shard.owner_ns", "shard.relay_ms",
		"sweep.stream_rows_per_s", "sweep.row_recode_us",
		"server.hit_p50_ms", "server.store_p50_ms", "server.peer_p50_ms", "server.miss_p50_ms")
	return names
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.Contains(name, "_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ns"), strings.Contains(name, "ns_per_task"):
		return "ns"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "share"), strings.HasSuffix(name, "_ratio"):
		return "fraction"
	case strings.HasSuffix(name, "_per_key"):
		return "ratio"
	}
	return "count"
}

// perLayer assembles the traced run's per-layer metrics: layer shares
// from the spans, what the run observed, and the probes.
func perLayer(cfg *config, w workload, out *outcome) (map[string]float64, error) {
	m := map[string]float64{}
	for _, l := range layers {
		m[l+".share"] = 0
	}
	for _, lt := range cfg.tr.summary() {
		if _, ok := m[lt.Layer+".share"]; ok {
			m[lt.Layer+".share"] = lt.Share
		}
	}
	for _, n := range runLayerNames {
		m[n] = out.layer[n]
	}
	p := &prober{dir: filepath.Join(cfg.dir, "probe"), m: m}
	if err := p.all(w.probes()); err != nil {
		return nil, err
	}
	for _, n := range perLayerNames() {
		if _, ok := m[n]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", n)
		}
	}
	return m, nil
}

// prober times each layer's public functions on fixed or workload
// inputs.  Timings are medians over repeats.
type prober struct {
	dir string
	m   map[string]float64
}

// perOp runs fn reps times per round for rounds rounds and returns the
// median time per call.
func perOp(rounds, reps int, fn func(i int)) time.Duration {
	var per []float64
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(t0))/float64(reps))
	}
	return time.Duration(medianFloat(per))
}

func (p *prober) all(in [][]byte) error {
	if err := p.generation(); err != nil {
		return err
	}
	if err := p.experiments(); err != nil {
		return err
	}
	runs, err := compute(in)
	if err != nil {
		return err
	}
	if err := p.wireAndStore(runs); err != nil {
		return err
	}
	return p.tiers(runs)
}

// generation probes montage, dag and core on the ladder sizes and the
// 4-degree preset.
func (p *prober) generation() error {
	ctx := context.Background()
	var top *dag.Workflow
	for _, d := range ladder {
		spec := montage.FromDegrees(d, int64(d))
		t0 := time.Now()
		wf, err := montage.Generate(spec)
		if err != nil {
			return err
		}
		p.m[fmt.Sprintf("montage.ns_per_task_%gdeg", d)] = float64(time.Since(t0)) / float64(wf.NumTasks())
		var runErr error
		per := perOp(3, 1, func(int) { _, runErr = core.RunContext(ctx, wf, core.DefaultPlan()) })
		if runErr != nil {
			return runErr
		}
		p.m[fmt.Sprintf("core.ns_per_task_%gdeg", d)] = float64(per) / float64(wf.NumTasks())
		top = wf
	}

	var genErr error
	var four *dag.Workflow
	p.m["montage.generate_ms"] = ms(perOp(3, 1, func(int) { four, genErr = montage.Generate(montage.FourDegree()) }))
	if genErr != nil {
		return genErr
	}
	var runErr error
	p.m["core.run_ms_4deg"] = ms(perOp(5, 1, func(int) { _, runErr = core.RunContext(ctx, four, core.DefaultPlan()) }))
	if runErr != nil {
		return runErr
	}
	p.m["dag.files_us"] = us(perOp(5, 20, func(int) { four.Files() }))

	// Replay the largest ladder workflow through the dag API: build
	// cost per task, and Finalize on its own.
	files, tasks := top.Files(), top.Tasks()
	var builds, finals []float64
	for r := 0; r < 3; r++ {
		build, final, err := replayDAG(top.Name, files, tasks)
		if err != nil {
			return err
		}
		builds = append(builds, float64(build+final)/float64(len(tasks)))
		finals = append(finals, ms(final))
	}
	p.m["dag.build_ns_per_task"] = medianFloat(builds)
	p.m["dag.finalize_ms"] = medianFloat(finals)
	return nil
}

// experiments times every registry entry on its own, after one
// concurrent pass has filled the preset memo, then rendering.
func (p *prober) experiments() error {
	ctx := context.Background()
	reg := experiments.Registry()
	if _, err := sweep.Map(ctx, 0, reg, func(ctx context.Context, _ int, e experiments.Experiment) ([]*report.Table, error) {
		return e.Tables(ctx, experiments.Params{})
	}); err != nil {
		return err
	}
	var all [][]*report.Table
	for _, e := range reg {
		t0 := time.Now()
		t, err := e.Tables(ctx, experiments.Params{})
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		p.m["experiments."+e.Name+"_ms"] = ms(time.Since(t0))
		all = append(all, t)
	}
	var renderErr error
	p.m["report.render_ms"] = ms(perOp(5, 1, func(int) {
		var buf bytes.Buffer
		renderErr = render(&buf, all)
	}))
	return renderErr
}

// probeRun is one probe scenario resolved and computed.
type probeRun struct {
	scenario []byte
	spec     montage.Spec
	plan     core.Plan
	key      string
	body     []byte
}

// compute resolves and runs the probe scenarios, generating each
// distinct workflow once.
func compute(in [][]byte) ([]probeRun, error) {
	wfs := montage.NewCache(0)
	var runs []probeRun
	for _, b := range in {
		var sc wire.Scenario
		if err := wire.DecodeStrict(bytes.NewReader(b), &sc); err != nil {
			return nil, err
		}
		spec, plan, err := sc.Resolve()
		if err != nil {
			return nil, err
		}
		wf, err := wfs.Generate(spec)
		if err != nil {
			return nil, err
		}
		res, err := core.RunContext(context.Background(), wf, plan)
		if err != nil {
			return nil, err
		}
		body, err := wire.NewRunDocumentV2(spec, res).Encode()
		if err != nil {
			return nil, err
		}
		runs = append(runs, probeRun{scenario: b, spec: spec, plan: plan, key: wire.CanonicalRunKeyV2(spec, plan), body: body})
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("probe: the workload offered no scenarios")
	}
	return runs, nil
}

// wireAndStore probes wire decoding, keying and encoding, the store,
// the ring and the sweep engine on the workload's own requests and
// bodies.
func (p *prober) wireAndStore(runs []probeRun) error {
	n := len(runs)
	var failure error
	fail := func(err error) {
		if err != nil && failure == nil {
			failure = err
		}
	}
	p.m["wire.decode_us"] = us(perOp(5, 4*n, func(i int) {
		var sc wire.Scenario
		fail(wire.DecodeStrict(bytes.NewReader(runs[i%n].scenario), &sc))
		_, _, err := sc.Resolve()
		fail(err)
	}))
	p.m["wire.key_us"] = us(perOp(5, 4*n, func(i int) {
		_ = wire.KeyHash(wire.CanonicalRunKeyV2(runs[i%n].spec, runs[i%n].plan))
	}))
	docs := make([]wire.RunDocumentV2, n)
	for i, r := range runs {
		fail(wire.DecodeStrict(bytes.NewReader(r.body), &docs[i]))
	}
	p.m["wire.encode_us"] = us(perOp(5, 4*n, func(i int) {
		_, err := docs[i%n].Encode()
		fail(err)
	}))
	p.m["sweep.row_recode_us"] = us(perOp(5, 4*n, func(i int) {
		var doc wire.RunDocumentV2
		fail(wire.DecodeStrict(bytes.NewReader(runs[i%n].body), &doc))
		fail(json.NewEncoder(io.Discard).Encode(wire.SweepEnvelope{Row: &wire.SweepRow{Index: i, RunDocumentV2: doc}}))
	}))
	if failure != nil {
		return failure
	}

	st, err := store.Open(filepath.Join(p.dir, "store"), store.Options{WireVersion: wire.Version})
	if err != nil {
		return err
	}
	var puts []float64
	for _, r := range runs {
		t0 := time.Now()
		fail(st.Put(r.key, r.body))
		puts = append(puts, ms(time.Since(t0)))
	}
	p.m["store.put_ms"] = medianFloat(puts)
	p.m["store.get_us"] = us(perOp(5, 4*n, func(i int) {
		if _, ok := st.Get(runs[i%n].key); !ok {
			fail(fmt.Errorf("probe: store lost an entry"))
		}
	}))

	// sweep.Stream over the stored bodies: the engine's own rate with
	// the cheapest item function a server has (store read + recode).
	t0 := time.Now()
	rows := 0
	enc := json.NewEncoder(io.Discard)
	for rows < 2000 {
		fail(sweep.Stream(context.Background(), 0, runs, func(_ context.Context, _ int, r probeRun) (wire.RunDocumentV2, error) {
			var doc wire.RunDocumentV2
			body, ok := st.Get(r.key)
			if !ok {
				return doc, fmt.Errorf("probe: store lost an entry")
			}
			return doc, wire.DecodeStrict(bytes.NewReader(body), &doc)
		}, func(i int, doc wire.RunDocumentV2) error {
			rows++
			return enc.Encode(wire.SweepEnvelope{Row: &wire.SweepRow{Index: i, RunDocumentV2: doc}})
		}))
		if failure != nil {
			return failure
		}
	}
	p.m["sweep.stream_rows_per_s"] = float64(rows) / time.Since(t0).Seconds()

	ring, err := shard.New([]string{"127.0.0.1:1", "127.0.0.1:2"})
	if err != nil {
		return err
	}
	hashes := make([]string, n)
	for i, r := range runs {
		hashes[i] = wire.KeyHash(r.key)
	}
	p.m["shard.owner_ns"] = float64(perOp(5, 1000, func(i int) { _ = ring.Owner(hashes[i%n]) }))
	return failure
}

// tiers probes each serving tier on a scratch pool: a miss and a hit
// on the key's owner, a peer answer from the other replica, and a store
// answer from a fresh replica opened over the owner's store.
func (p *prober) tiers(runs []probeRun) error {
	if len(runs) > 8 {
		runs = runs[:8]
	}
	dir := filepath.Join(p.dir, "tiers")
	pool, err := startPool(filepath.Join(dir, "a"), filepath.Join(dir, "b"))
	if err != nil {
		return err
	}
	defer stopPool(pool)
	c := newClient()
	defer c.CloseIdleConnections()
	ring, err := shard.New([]string{pool[0].addr, pool[1].addr})
	if err != nil {
		return err
	}
	lat := map[string][]float64{}
	relay := shard.NewClient(0)
	var relays []float64
	ask := func(addr string, r probeRun, want string) error {
		t0 := time.Now()
		body, tier, err := post(c, addr, "/v2/run", r.scenario)
		d := ms(time.Since(t0))
		if err != nil {
			return err
		}
		if tier != want {
			return fmt.Errorf("probe: wanted a %s answer, got %s", want, tier)
		}
		if !bytes.Equal(body, r.body) {
			return fmt.Errorf("probe: %s answer differs from the local result", want)
		}
		lat[want] = append(lat[want], d)
		return nil
	}
	owners := map[string]int{pool[0].addr: 0, pool[1].addr: 1}
	var ownedBy []int
	for _, r := range runs {
		owner, other := pool[0].addr, pool[1].addr
		if ring.Owner(wire.KeyHash(r.key)) != owner {
			owner, other = other, owner
		}
		if err := ask(owner, r, "miss"); err != nil {
			return err
		}
		if err := ask(owner, r, "hit"); err != nil {
			return err
		}
		if err := ask(other, r, "peer"); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := relay.Run(context.Background(), owner, r.scenario); err != nil {
			return err
		}
		relays = append(relays, ms(time.Since(t0)))
		ownedBy = append(ownedBy, owners[owner])
	}
	// A standalone replica opened over a store answers that store's
	// keys from disk.
	readers, err := startPool(pool[0].storeDir, pool[1].storeDir)
	if err != nil {
		return err
	}
	defer stopPool(readers)
	for i, r := range runs {
		if err := ask(readers[ownedBy[i]].addr, r, "store"); err != nil {
			return err
		}
	}
	for _, t := range []string{"hit", "store", "peer", "miss"} {
		p.m["server."+t+"_p50_ms"] = medianFloat(lat[t])
	}
	p.m["shard.relay_ms"] = medianFloat(relays)
	return nil
}
