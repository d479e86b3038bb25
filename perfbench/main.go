// Command perfbench is the repository's benchmark.  It runs one
// named workload against the program's public surfaces -- the
// experiments registry, and in-process servers behind loopback HTTP --
// measures it for a fixed time, checks every output, and prints one JSON
// result as the last line of standard output.
//
//	perfbench -workload serve-mixed -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics.  With
// -trace 1 the same workload and seed run again with spans on, and the
// result carries the per-layer metrics instead.  See README.md for the
// workloads and what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose outputs digests.json pins.
const defaultSeed = 1

// config is what every workload is built from.
type config struct {
	dir     string      // scratch directory of this run, removed at exit
	seed    int64       // makes every generated input
	seconds float64     // how long the run measures
	small   bool        // tiny sizes, for the benchmark's own tests
	tr      *tracer     // nil unless traced
	cal     *calibrator // measures the reference unit through the run
}

// outcome is what one measured run of a workload produced.
type outcome struct {
	attempted, failed int
	// cpuMS is the process CPU milliseconds one operation of the
	// workload costs; cpu_per_op is it in reference units.
	cpuMS float64
	// perCPU is the workload's work units per second of process CPU
	// time; work_per_cpu is it per reference unit.
	perCPU float64
	// latency holds the wall-clock samples behind the wall_latency
	// figures reported beside the result.
	latency samples
	// p50, when set, replaces latency.p50() as wall_latency_p50_ms, for
	// a workload whose samples come from two populations of fixed sizes:
	// their pooled median would fall in the gap between them.
	p50 float64
	// rssMB, when set, replaces the end-of-run peak as peak_rss_mb: the
	// peak read after a fixed amount of work, for a workload whose
	// server caches are still filling when the run ends, so that a
	// faster program, finishing more work, does not read as a larger one.
	rssMB float64
	// throughput is the workload's work units per wall second,
	// reported beside the result.
	throughput float64
	// layer holds the per-layer counts and shares only the run itself
	// can observe (tier answers, /metrics counters).
	layer map[string]float64
	// digest is the SHA-256 of the run's deterministic outputs, or ""
	// when the run has none to pin.
	digest string
	// detail is reported beside the result: sample counts, generator
	// lateness and similar facts a reader needs to trust the numbers.
	detail map[string]any
}

// workload is one named traffic mix.
type workload interface {
	// setup builds everything the measured loop needs and fills the
	// caches users would find warm.
	setup() error
	// run measures for d, then checks every output.
	run(d time.Duration) (*outcome, error)
	// probes lists the workload's own scenario documents, the inputs
	// the per-layer probes time.
	probes() [][]byte
	// close stops every server and goroutine the workload started.
	close() error
}

var workloads = map[string]func(*config) workload{
	"paper-figures": newFigures,
	"cold-scale":    newColdScale,
	"serve-mixed":   newServeMixed,
	"sweep-pool":    newSweepPool,
}

// stealLimit is the share of CPU time stolen by the hypervisor above
// which a run's timings are marked unreliable.  On a 2-vCPU host, runs
// above it read up to a third slower with the program unchanged.
const stealLimit = 0.05

// calibEdge is how many reference-kernel samples are taken right before
// and right after the measured loop, beside those the loop takes.
const calibEdge = 2

// setupReps is how many times setup_s is measured per run: once in this
// process and the rest in child processes, each from a cold start.
const setupReps = 3

func main() {
	if os.Getenv(calibrateEnv) == "1" {
		if err := serveCalibration(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "seed every generated input is drawn from")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	dir := flag.String("dir", ".bench_build", "directory for scratch stores and trace files")
	setupOnly := flag.Bool("setup-only", false, "set the workload up once, print the seconds it took and exit")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace == 1, *dir, *setupOnly); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(name string, seed int64, seconds float64, traced bool, dir string, setupOnly bool) error {
	if _, ok := workloads[name]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg := &config{dir: scratch, seed: seed, seconds: seconds}

	if setupOnly {
		w := workloads[name](cfg)
		setupS, err := timeSetup(w)
		if cerr := w.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Println(strconv.FormatFloat(setupS, 'g', -1, 64))
		return nil
	}
	// setup_s is an end-to-end metric, so only the untraced run times
	// the extra set-ups.
	var setups []float64
	if traced {
		cfg.tr = newTracer()
	} else if setups, err = childSetups(name, seed, dir, setupReps-1); err != nil {
		return err
	}
	steal := stealShare()
	res, detail, err := measure(name, cfg, setups)
	if err != nil {
		return err
	}
	if traced {
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
		if err := cfg.tr.write(path); err != nil {
			return err
		}
		detail["trace_file"] = path
		clamped := map[string]int{}
		for _, lt := range cfg.tr.summary() {
			fmt.Fprintf(os.Stderr, "layer %-12s self %9.3fs  share of wall %7.2f%%  spans %d  clamped %d\n",
				lt.Layer, lt.SelfS, 100*lt.Share, lt.Spans, lt.Clamped)
			if lt.Clamped > 0 {
				clamped[lt.Layer] = lt.Clamped
			}
		}
		detail["self_time_clamped_spans"] = clamped
	}
	detail["host"] = currentHost()
	stolen := steal()
	detail["host_steal_share"] = stolen
	if stolen > stealLimit {
		detail["timings_unreliable"] = true
		fmt.Fprintf(os.Stderr, "perfbench: the hypervisor stole %.1f%% of CPU time during this run (limit %.0f%%): its timings are unreliable\n",
			100*stolen, 100*stealLimit)
	}
	b, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if b, err = json.Marshal(res); err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// measure sets the workload up once more (after the set-ups already
// timed in child processes), runs it, checks its outputs and returns
// the result with the facts reported beside it.
func measure(name string, cfg *config, setups []float64) (result, map[string]any, error) {
	w := workloads[name](cfg)
	setupS, err := timeSetup(w)
	if err != nil {
		w.close()
		return result{}, nil, err
	}
	setups = append(setups, setupS)
	if cfg.cal, err = newCalibrator(); err != nil {
		w.close()
		return result{}, nil, err
	}
	for i := 0; i < calibEdge; i++ {
		cfg.cal.sample()
	}
	out, err := w.run(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; err == nil && i < calibEdge; i++ {
		cfg.cal.sample()
	}
	var layers map[string]float64
	if err == nil && cfg.tr != nil {
		layers, err = perLayer(cfg, w, out)
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if cerr := cfg.cal.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, nil, err
	}

	res := result{Correct: out.failed == 0, Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: map[string]metric{}}
	if out.digest != "" && cfg.seed == defaultSeed {
		want, err := committedDigest(name)
		if err != nil {
			return result{}, nil, err
		}
		out.detail["digest"] = out.digest
		if want != out.digest {
			fmt.Fprintf(os.Stderr, "perfbench: %s outputs digest %s, committed %s\n", name, out.digest, want)
			res.Correct = false
		}
	}
	if cfg.tr != nil {
		for k, v := range layers {
			res.Metrics[k] = metric{v, layerUnit(k)}
		}
	} else {
		res.Metrics["setup_s"] = metric{medianFloat(setups), "s"}
		rss := out.rssMB
		if rss == 0 {
			rss = peakRSSMB()
		}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		unit := cfg.cal.unitMS()
		res.Metrics["cpu_per_op"] = metric{out.cpuMS / unit, "ref"}
		res.Metrics["work_per_cpu"] = metric{out.perCPU * unit / 1e3, "1/ref"}
	}
	out.detail["ref_unit_cpu_ms"] = cfg.cal.unitMS()
	out.detail["ref_samples"] = len(cfg.cal.samples)
	out.detail["cpu_ms_per_op"] = out.cpuMS
	out.detail["work_per_cpu_s"] = out.perCPU
	out.detail["workload"] = name
	out.detail["seed"] = cfg.seed
	// Wall-clock figures are reported, not gated: on a shared host they
	// move with the neighbours' load by more than any bound may allow.
	p50 := out.latency.p50()
	if out.p50 > 0 {
		p50 = out.p50
	}
	out.detail["wall_latency_p50_ms"] = p50
	out.detail["wall_throughput_per_s"] = out.throughput
	out.detail["latency_samples"] = len(out.latency)
	if label, v, ok := out.latency.tail(); ok {
		out.detail["wall_latency_tail_ms"] = map[string]float64{label: v}
	}
	out.detail["setup_s_each"] = setups
	return res, out.detail, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func timeSetup(w workload) (float64, error) {
	start := time.Now()
	err := w.setup()
	return time.Since(start).Seconds(), err
}

// childSetups measures n more cold set-ups, each in a fresh copy of
// this process, one after another.
func childSetups(name string, seed int64, dir string, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-dir", dir, "-setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q", b)
		}
		out = append(out, v)
	}
	return out, nil
}
