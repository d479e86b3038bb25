package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/montage"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/wire"
)

// replayer re-does, in this process and inside spans, the module calls
// a server made to answer one request, so the traced run can split a
// request's time by layer without instrumenting the program.  The
// store calls go to a scratch store holding the workload's own bodies.
type replayer struct {
	tr    *tracer
	store *store.Store
	// wfs mirrors the server's bounded workflow memo, so a replayed
	// miss regenerates only the workflows the server had to generate.
	wfs *montage.Cache
}

func newReplayer(tr *tracer, dir string) (*replayer, error) {
	st, err := store.Open(dir, store.Options{WireVersion: wire.Version})
	if err != nil {
		return nil, err
	}
	return &replayer{tr: tr, store: st, wfs: montage.NewCache(64)}, nil
}

// decode replays request decoding and keying: DecodeStrict + Resolve,
// then CanonicalRunKeyV2 + KeyHash.
func (rp *replayer) decode(req, parent int, scenario []byte) (montage.Spec, core.Plan, string, error) {
	var (
		sc   wire.Scenario
		spec montage.Spec
		plan core.Plan
		err  error
		key  string
	)
	rp.tr.do(req, parent, "wire", "decode", func() {
		if err = wire.DecodeStrict(bytes.NewReader(scenario), &sc); err == nil {
			spec, plan, err = sc.Resolve()
		}
	})
	if err != nil {
		return spec, plan, "", err
	}
	rp.tr.do(req, parent, "wire", "key", func() {
		key = wire.CanonicalRunKeyV2(spec, plan)
		_ = wire.KeyHash(key)
	})
	return spec, plan, key, nil
}

// compute replays a miss: generation through the workflow memo (with
// the dag calls a fresh generation made replayed as a child span),
// simulation, encoding and the store write.  It returns the body, which
// must equal the one the server sent.
func (rp *replayer) compute(req, parent int, spec montage.Spec, plan core.Plan, key string) ([]byte, error) {
	var (
		wf   *dag.Workflow
		res  core.Result
		body []byte
		err  error
	)
	misses := rp.wfs.Stats().Misses
	gen := rp.tr.open(req, parent, "montage", "generate")
	wf, err = rp.wfs.Generate(spec)
	rp.tr.finish(gen)
	if err != nil {
		return nil, err
	}
	if rp.wfs.Stats().Misses > misses {
		files, tasks := wf.Files(), wf.Tasks()
		rp.tr.do(req, gen, "dag", "build", func() { _, _, err = replayDAG(wf.Name, files, tasks) })
		if err != nil {
			return nil, err
		}
	}
	rp.tr.do(req, parent, "core", "run", func() { res, err = core.RunContext(context.Background(), wf, plan) })
	if err != nil {
		return nil, err
	}
	rp.tr.do(req, parent, "wire", "encode", func() { body, err = wire.NewRunDocumentV2(spec, res).Encode() })
	if err != nil {
		return nil, err
	}
	rp.tr.do(req, parent, "store", "put", func() { err = rp.store.Put(key, body) })
	return body, err
}

// storeGet replays a store-tier answer.
func (rp *replayer) storeGet(req, parent int, key string, body []byte) error {
	if _, ok := rp.store.Get(key); !ok {
		if err := rp.store.Put(key, body); err != nil {
			return err
		}
	}
	var ok bool
	rp.tr.do(req, parent, "store", "get", func() { _, ok = rp.store.Get(key) })
	if !ok {
		return fmt.Errorf("replay: scratch store lost %s", store.HashKey(key))
	}
	return nil
}

// run replays one /v2/run answered at tier (hit, store or miss) and
// checks that the replayed result equals the server's body.
func (rp *replayer) run(req, parent int, scenario []byte, tier string, body []byte) error {
	spec, plan, key, err := rp.decode(req, parent, scenario)
	if err != nil {
		return err
	}
	switch tier {
	case "hit":
		return nil
	case "store":
		return rp.storeGet(req, parent, key, body)
	case "miss":
		got, err := rp.compute(req, parent, spec, plan, key)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, body) {
			return fmt.Errorf("replay: %s computed here differs from the served body", spec.Name)
		}
		return nil
	}
	return fmt.Errorf("replay: unexpected X-Cache %q", tier)
}

// owner replays the ring lookup that routes a key.
func (rp *replayer) owner(req, parent int, ring *shard.Ring, key string) string {
	var o string
	rp.tr.do(req, parent, "shard", "owner", func() { o = ring.Owner(wire.KeyHash(key)) })
	return o
}

// replayDAG rebuilds a generated workflow through the dag API: every
// file, then every task in ID order, then Finalize.  It returns how long
// the adds and Finalize each took.
func replayDAG(name string, files []*dag.File, tasks []*dag.Task) (build, finalize time.Duration, err error) {
	t0 := time.Now()
	w := dag.New(name)
	for _, f := range files {
		if _, err := w.AddFile(f.Name, f.Size, f.Output); err != nil {
			return 0, 0, err
		}
	}
	for _, t := range tasks {
		if _, err := w.AddTask(t.Name, t.Type, t.Runtime, t.Inputs, t.Outputs); err != nil {
			return 0, 0, err
		}
	}
	t1 := time.Now()
	err = w.Finalize()
	return t1.Sub(t0), time.Since(t1), err
}
