package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/montage"
	"repro/wire"
)

// TestMain lets the test binary serve as the reference kernel's child
// process, as the perfbench binary does.
func TestMain(m *testing.M) {
	if os.Getenv(calibrateEnv) == "1" {
		if err := serveCalibration(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile is the subset of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and perfbench's
// own lists of workloads and per-layer metrics in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench has %v", names, workloadNames())
	}
	var layer []string
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
		if m.Unit != layerUnit(m.Name) {
			t.Errorf("%s: BENCHMARK.json unit %q, perfbench reports %q", m.Name, m.Unit, layerUnit(m.Name))
		}
	}
	if !reflect.DeepEqual(layer, perLayerNames()) {
		t.Errorf("BENCHMARK.json per_layer does not match perfbench:\n got %q\nwant %q", layer, perLayerNames())
	}
}

// TestSmallRunsEmitEveryMetric runs each workload at tiny sizes,
// untraced and traced, and checks that every metric BENCHMARK.json
// names is reported with its unit and every output check passed.
func TestSmallRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := &config{dir: t.TempDir(), seed: 7, seconds: 0.3, small: true}
			want := map[string]string{}
			if traced {
				cfg.tr = newTracer()
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, _, err := measure(name, cfg, nil)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				m, ok := res.Metrics[n]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, n, m, unit)
				}
			}
			if !traced {
				for n, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", name, n, m.Value)
					}
				}
			}
		}
	}
}

// runBody computes one canonical /v2/run body for the 1-degree preset.
func runBody(t *testing.T) ([]byte, int) {
	t.Helper()
	spec := montage.OneDegree()
	wf, err := montage.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunContext(context.Background(), wf, core.DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	body, err := wire.NewRunDocumentV2(spec, res).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return body, spec.TaskCount()
}

func TestCheckRunRejectsCorruptBodies(t *testing.T) {
	body, tasks := runBody(t)
	if err := checkRun(body, tasks); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	corrupt := map[string][]byte{
		"truncated":     body[:len(body)/2],
		"unknown field": bytes.Replace(body, []byte(`"tasks"`), []byte(`"taskz"`), 1),
		"trailing data": append(append([]byte(nil), body...), []byte("{}")...),
		"not canonical": bytes.Replace(body, []byte("\n  "), []byte("\n "), 1),
	}
	for name, b := range corrupt {
		if err := checkRun(b, tasks); err == nil {
			t.Errorf("%s body passed the check", name)
		}
	}
	if err := checkRun(body, tasks+1); err == nil {
		t.Error("wrong task count passed the check")
	}
}

func TestCheckSweepRequiresDoneEnvelope(t *testing.T) {
	body, tasks := runBody(t)
	var doc wire.RunDocumentV2
	if err := wire.DecodeStrict(bytes.NewReader(body), &doc); err != nil {
		t.Fatal(err)
	}
	line := func(env wire.SweepEnvelope) string {
		b, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	row0 := line(wire.SweepEnvelope{Row: &wire.SweepRow{Index: 0, RunDocumentV2: doc}})
	row1 := line(wire.SweepEnvelope{Row: &wire.SweepRow{Index: 1, RunDocumentV2: doc}})
	done := line(wire.SweepEnvelope{Done: &wire.SweepDone{Rows: 2}})
	want := []int{tasks, tasks}
	if err := checkSweep([]byte(row0+row1+done), want); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	bad := map[string]string{
		"missing done":   row0 + row1,
		"error envelope": row0 + line(wire.SweepEnvelope{Error: "boom"}),
		"short grid":     row0 + line(wire.SweepEnvelope{Done: &wire.SweepDone{Rows: 1}}),
		"out of order":   row1 + row0 + done,
		"after done":     row0 + row1 + done + row0,
		"corrupt row":    strings.Replace(row0, `"tasks"`, `"taskz"`, 1) + row1 + done,
	}
	for name, s := range bad {
		if err := checkSweep([]byte(s), want); err == nil {
			t.Errorf("%s stream passed the check", name)
		}
	}
}

// TestSummarySharesOfWallTime pins how layer shares are taken: self time
// over the extent of the root spans, with a parent that its replayed
// children outlast clamped to zero and counted.
func TestSummarySharesOfWallTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	req := tr.request()
	root := tr.record(req, 0, "client", "request", at(0), at(1000))
	srv := tr.record(req, root, "server", "POST /v2/sweep", at(0), at(1000))
	tr.record(req, srv, "core", "run", at(1000), at(1600))
	tr.record(req, srv, "core", "run", at(1600), at(2200))

	got := map[string]layerTime{}
	for _, lt := range tr.summary() {
		got[lt.Layer] = lt
	}
	if lt := got["core"]; math.Abs(lt.Share-1.2) > 1e-9 || lt.Clamped != 0 {
		t.Errorf("core: share %v clamped %d, want 1.2 and 0", lt.Share, lt.Clamped)
	}
	if lt := got["server"]; lt.SelfS != 0 || lt.Clamped != 1 {
		t.Errorf("server: self %vs clamped %d, want 0 and 1", lt.SelfS, lt.Clamped)
	}
	if lt := got["client"]; lt.SelfS != 0 || lt.Clamped != 0 {
		t.Errorf("client: self %vs clamped %d, want 0 and 0", lt.SelfS, lt.Clamped)
	}
}

// TestReferenceKernelIsFixedWork checks that the reference kernel does
// the same work on every run and copy, and that the unit it gives is a
// positive time.
func TestReferenceKernelIsFixedWork(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	want := a.run()
	if got := a.run(); got != want {
		t.Errorf("second run gave %v, first %v", got, want)
	}
	if got := b.run(); got != want {
		t.Errorf("second copy gave %v, first %v", got, want)
	}
	if allocs := testing.AllocsPerRun(3, func() { a.run() }); allocs != 0 {
		t.Errorf("a kernel run allocates %v times, want 0", allocs)
	}
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	c.sample()
	c.tick() // within calibEvery of the sample: no new one
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	if len(c.samples) != runtime.GOMAXPROCS(0) {
		t.Errorf("%d samples after one sample and an early tick, want one per CPU", len(c.samples))
	}
	if c.unitMS() <= 0 {
		t.Errorf("reference unit %v ms, want > 0", c.unitMS())
	}
}
