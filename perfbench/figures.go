package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sweep"
)

// figures is the paper-figures workload: every registry experiment with
// zero Params, rendered as text tables -- the work of montagesim -exp
// all -- as repeated passes in one process.  Its inputs are the paper's
// and do not depend on the seed.
type figures struct {
	cfg   *config
	reg   []experiments.Experiment
	first []byte // the set-up pass's rendered tables
}

func newFigures(cfg *config) workload {
	return &figures{cfg: cfg, reg: experiments.Registry()}
}

// setup runs the first pass, which fills the process-wide montage.Cached
// preset memo every later pass shares.
func (f *figures) setup() error {
	out, err := f.pass(0)
	f.first = out
	return err
}

// pass runs every experiment concurrently, the way montagesim -exp all
// does, and renders the tables in registry order.
func (f *figures) pass(req int) ([]byte, error) {
	tr := f.cfg.tr
	root := tr.open(req, 0, "client", "pass")
	defer tr.finish(root)
	tables, err := sweep.Map(context.Background(), 0, f.reg,
		func(ctx context.Context, _ int, e experiments.Experiment) ([]*report.Table, error) {
			var (
				t   []*report.Table
				err error
			)
			tr.do(req, root, "experiments", e.Name, func() { t, err = e.Tables(ctx, experiments.Params{}) })
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.Name, err)
			}
			return t, nil
		})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tr.do(req, root, "report", "render", func() { err = render(&buf, tables) })
	return buf.Bytes(), err
}

func render(buf *bytes.Buffer, tables [][]*report.Table) error {
	for _, ts := range tables {
		for _, t := range ts {
			if err := t.WriteText(buf); err != nil {
				return err
			}
			buf.WriteByte('\n')
		}
	}
	return nil
}

func (f *figures) run(d time.Duration) (*outcome, error) {
	out := &outcome{detail: map[string]any{}}
	var rates []float64
	var cpuTotal time.Duration
	start := time.Now()
	for len(out.latency) == 0 || time.Since(start) < d {
		f.cfg.cal.tick()
		t0, c0 := time.Now(), cpuNow()
		b, err := f.pass(f.cfg.tr.request())
		took, used := time.Since(t0), cpuNow()-c0
		out.latency = append(out.latency, took)
		rates = append(rates, float64(len(f.reg))/took.Seconds())
		cpuTotal += used
		out.attempted++
		if err != nil || !bytes.Equal(b, f.first) {
			out.failed++
		}
	}
	out.throughput = medianFloat(rates)
	// A mean: a pass holds several collections, and a median of passes
	// jumps with how many landed on the middle one.
	passes := len(out.latency)
	out.cpuMS = ms(cpuTotal) / float64(passes)
	out.perCPU = ratio(float64(len(f.reg)*passes), cpuTotal.Seconds())
	if !f.cfg.small {
		d := newDigest()
		d.add(f.first)
		out.digest = d.sum()
	}
	out.detail["passes"] = passes
	return out, nil
}

func (f *figures) probes() [][]byte { return presetScenarios() }

func (f *figures) close() error { return nil }
