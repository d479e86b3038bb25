package main

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The gated cost metrics are CPU time expressed in reference units: one
// unit is the CPU time a fixed reference kernel takes on the same host,
// measured in the same run.  A shared host's speed drifts by a quarter
// or more over minutes, with its neighbours' load on the sibling
// hyperthreads, shared caches and memory bus.  CPU time leaves out the
// time the hypervisor stole but not that drift; the kernel, measured
// every calibEvery between the workload's operations, slows with the
// host, so the ratio does not.  It is the idea behind a cloud
// provider's compute unit: CPU capacity measured against a fixed
// reference instead of in seconds of whatever core ran.

// calibEvery is how often the kernel is measured during a run.
const calibEvery = 500 * time.Millisecond

// Kernel sizes.  About half a run's time is cache-resident work on a
// megabyte and a half (maps, a short walk, a sort, formatting) and half
// a dependent walk over a 16 MB cycle, which waits on main memory, so
// the kernel slows with the neighbours' load on the caches and the
// memory bus the way the program's pointer-heavy generation and
// simulation do.  About 12 ms of CPU per run on a 2-vCPU Xeon.
const (
	refKeys     = 4096
	refChase    = 1 << 16
	refSort     = 1 << 13
	refFar      = 1 << 22 // entries of the memory-bound cycle
	refFarSteps = 1 << 15
)

// refKernel is one copy of the reference kernel's data.  It is built
// once from a fixed seed and never allocates afterwards, so the kernel
// neither feeds nor pays for the program's garbage collections.
type refKernel struct {
	keys  []string
	index map[string]int32
	next  []int32 // one random cycle through every index
	vals  []float64
	perm  []int32
	order []int32
	buf   []byte
	far   []int32 // one random cycle through refFar entries
}

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(1))
	k := &refKernel{
		index: make(map[string]int32, refKeys),
		next:  make([]int32, refChase),
		vals:  make([]float64, refChase),
		order: make([]int32, refSort),
		buf:   make([]byte, 0, 32*refSort),
		far:   make([]int32, refFar),
	}
	for i := 0; i < refKeys; i++ {
		key := "task/" + strconv.FormatInt(rng.Int63(), 36)
		k.keys = append(k.keys, key)
		k.index[key] = int32(i)
	}
	cycle := rng.Perm(refChase)
	for i, c := range cycle {
		k.next[c] = int32(cycle[(i+1)%refChase])
		k.vals[i] = rng.ExpFloat64()
	}
	for _, p := range rng.Perm(refSort) {
		k.perm = append(k.perm, int32(p))
	}
	// Sattolo's shuffle: a uniformly random single cycle, built in place.
	for i := range k.far {
		k.far[i] = int32(i)
	}
	for i := len(k.far) - 1; i > 0; i-- {
		j := rng.Intn(i)
		k.far[i], k.far[j] = k.far[j], k.far[i]
	}
	return k
}

// run does the kernel's fixed work: map lookups, a dependent walk of
// the short cycle, a sort by value, float formatting and a dependent
// walk of the far cycle.
func (k *refKernel) run() float64 {
	sum := 0.0
	for _, key := range k.keys {
		sum += float64(k.index[key])
	}
	i := int32(0)
	for range k.next {
		i = k.next[i]
		sum += k.vals[i]
	}
	copy(k.order, k.perm)
	slices.SortFunc(k.order, func(a, b int32) int { return cmp.Compare(k.vals[a], k.vals[b]) })
	k.buf = k.buf[:0]
	for _, o := range k.order {
		k.buf = strconv.AppendFloat(k.buf, k.vals[o], 'g', -1, 64)
	}
	for range refFarSteps {
		i = k.far[i]
	}
	return sum + float64(len(k.buf)) + float64(i)
}

// calibrateEnv, set to 1, makes the perfbench binary (or its test
// binary) serve reference-kernel samples instead of running a workload.
const calibrateEnv = "PERFBENCH_CALIBRATE"

// calibrator measures the reference kernel through a run.  The kernel
// runs in a child process, so its memory stays out of peak_rss_mb and
// its live data out of the program's garbage-collection pacing.
type calibrator struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	last    time.Time
	samples []float64 // CPU milliseconds per kernel run
	err     error     // the first failure, reported by close
}

func newCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), calibrateEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	return &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// sample has the child run the kernel once on every CPU at the same
// time, as the workloads load every CPU.
func (c *calibrator) sample() {
	if c.err != nil {
		return
	}
	line, err := "", error(nil)
	if _, err = io.WriteString(c.in, "\n"); err == nil {
		line, err = c.out.ReadString('\n')
	}
	for _, f := range strings.Fields(line) {
		var v float64
		if v, err = strconv.ParseFloat(f, 64); err != nil {
			break
		}
		c.samples = append(c.samples, v)
	}
	if err != nil {
		c.err = fmt.Errorf("calibrator: %w", err)
	}
	c.last = time.Now()
}

// tick samples when calibEvery has passed since the last sample.  The
// workloads call it between operations, outside the time they measure.
func (c *calibrator) tick() {
	if time.Since(c.last) >= calibEvery {
		c.sample()
	}
}

// unitMS is the run's reference unit: the median CPU milliseconds of a
// kernel run.
func (c *calibrator) unitMS() float64 { return medianFloat(c.samples) }

// close stops the child and waits for it to end.
func (c *calibrator) close() error {
	c.in.Close()
	err := c.cmd.Wait()
	if c.err != nil {
		return c.err
	}
	if err == nil && len(c.samples) == 0 {
		err = errors.New("calibrator: no samples")
	}
	return err
}

// serveCalibration is the child's side: for every line read it runs the
// kernel once per CPU side by side, each copy on a thread of its own
// whose CPU clock times it, and writes the CPU milliseconds of each.
// It returns at the end of its input.
func serveCalibration(in io.Reader, out io.Writer) error {
	kernels := make([]*refKernel, runtime.GOMAXPROCS(0))
	for i := range kernels {
		kernels[i] = newRefKernel()
	}
	ms := make([]float64, len(kernels))
	sums := make([]float64, len(kernels))
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		var wg sync.WaitGroup
		for i, k := range kernels {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				t0 := threadCPU()
				sums[i] = k.run()
				ms[i] = float64(threadCPU()-t0) / float64(time.Millisecond)
			}()
		}
		wg.Wait()
		var line []byte
		for i := range ms {
			if sums[i] != sums[0] {
				return errors.New("calibrator: kernel copies disagree")
			}
			line = strconv.AppendFloat(line, ms[i], 'g', -1, 64)
			line = append(line, ' ')
		}
		if _, err := out.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return sc.Err()
}

// threadCPU is the CPU time of the calling thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
