// Package montage generates Montage mosaic workflows with the structure,
// task counts, runtimes and data volumes of the workflows the paper
// simulated.
//
// The real workflows were produced by Montage's mDAG component for the
// M17 region and profiled on real runs; neither artifact is available
// here, so this package is the synthetic equivalent: it emits the
// canonical nine-level Montage DAG
//
//	mProject (N) -> mDiffFit (D) -> mConcatFit -> mBgModel ->
//	mBackground (N) -> mAdd -> mShrink -> mJPEG
//
// with task totals 2N + D + 5 matching the paper exactly
// (203 / 731 / 3,027 tasks for the 1/2/4-degree mosaics), and calibrates
// runtimes and file sizes to the paper's published aggregates:
//
//   - total CPU time 5.6 / 20.3 / 84 CPU-hours (from the Fig. 10 CPU
//     costs of $0.56 / $2.03 / $8.40 at $0.10 per CPU-hour),
//   - final mosaic sizes 173.46 MB / 557.9 MB / 2.229 GB (§6, Q3), and
//   - CCR 0.053 / 0.053 / 0.045 at the 10 Mbps reference bandwidth.
package montage

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/trace"
	"repro/internal/units"
)

// Spec parameterizes one Montage workflow.
type Spec struct {
	Name    string
	Degrees float64 // mosaic edge length in degrees (documentation only)
	Images  int     // N: input images, also mProject and mBackground count
	Diffs   int     // D: overlapping image pairs, the mDiffFit count

	// TotalCPU is the calibration target for the sum of task runtimes.
	TotalCPU units.Duration
	// MosaicBytes pins the size of the final mosaic FITS file.
	MosaicBytes units.Bytes
	// TargetCCR, when positive, rescales intermediate file sizes so the
	// workflow's CCR at Bandwidth matches it.
	TargetCCR float64
	// Bandwidth is the reference bandwidth for the CCR calibration; the
	// paper uses 10 Mbps.
	Bandwidth units.Bandwidth
	// Seed drives the deterministic runtime/size jitter.
	Seed int64
}

// The three workflows simulated in the paper.  Task counts come from §5;
// CPU totals from Fig. 10; mosaic sizes and CCRs from §6.
//
// N and D are chosen so 2N+D+5 reproduces the published task counts with
// a diff-to-image ratio (~2.4-2.6) consistent with a gridded sky overlap
// pattern.

// OneDegree returns the spec of the 1-degree-square M17 mosaic workflow
// (203 tasks).
func OneDegree() Spec {
	return Spec{
		Name: "montage-1deg", Degrees: 1, Images: 45, Diffs: 108,
		TotalCPU:    units.Duration(5.6 * units.SecondsPerHour),
		MosaicBytes: units.Bytes(173.46 * units.MB),
		TargetCCR:   0.053, Bandwidth: units.Mbps(10), Seed: 1,
	}
}

// TwoDegree returns the spec of the 2-degree-square workflow (731 tasks).
func TwoDegree() Spec {
	return Spec{
		Name: "montage-2deg", Degrees: 2, Images: 162, Diffs: 402,
		TotalCPU:    units.Duration(20.3 * units.SecondsPerHour),
		MosaicBytes: units.Bytes(557.9 * units.MB),
		TargetCCR:   0.053, Bandwidth: units.Mbps(10), Seed: 2,
	}
}

// FourDegree returns the spec of the 4-degree-square workflow (3,027
// tasks).
func FourDegree() Spec {
	return Spec{
		Name: "montage-4deg", Degrees: 4, Images: 662, Diffs: 1698,
		TotalCPU:    units.Duration(84 * units.SecondsPerHour),
		MosaicBytes: units.Bytes(2.229 * units.GB),
		TargetCCR:   0.045, Bandwidth: units.Mbps(10), Seed: 4,
	}
}

// Presets returns the paper's three workflows in size order.
func Presets() []Spec { return []Spec{OneDegree(), TwoDegree(), FourDegree()} }

// FromDegrees builds a spec for an arbitrary mosaic size by scaling the
// paper's presets: image count grows with sky area, CPU time and mosaic
// size likewise.  Used by the whole-sky planner for 6-degree mosaics.
func FromDegrees(degrees float64, seed int64) Spec {
	base := OneDegree()
	area := degrees * degrees
	images := int(math.Round(41*area + 4)) // ~41 plates per sq. degree + border
	diffs := int(math.Round(2.5 * float64(images)))
	return Spec{
		Name:    fmt.Sprintf("montage-%.3gdeg", degrees),
		Degrees: degrees, Images: images, Diffs: diffs,
		TotalCPU:    units.Duration(float64(base.TotalCPU) / 1.12 * area), // ~5 CPU-h per sq. degree
		MosaicBytes: units.BytesOf(float64(base.MosaicBytes) / 1.25 * area),
		TargetCCR:   0.05, Bandwidth: units.Mbps(10), Seed: seed,
	}
}

// Validate checks the spec for internal consistency.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("montage: spec has no name")
	case s.Images < 2:
		return fmt.Errorf("montage: need at least 2 images, got %d", s.Images)
	case s.Diffs < 1:
		return fmt.Errorf("montage: need at least 1 diff, got %d", s.Diffs)
	case s.TotalCPU <= 0:
		return fmt.Errorf("montage: non-positive TotalCPU %v", s.TotalCPU)
	case s.MosaicBytes <= 0:
		return fmt.Errorf("montage: non-positive MosaicBytes %d", s.MosaicBytes)
	case s.TargetCCR < 0:
		return fmt.Errorf("montage: negative TargetCCR %v", s.TargetCCR)
	case s.TargetCCR > 0 && s.Bandwidth <= 0:
		return fmt.Errorf("montage: TargetCCR set but no reference bandwidth")
	}
	return nil
}

// TaskCount returns the number of tasks Generate will produce: 2N + D + 5.
func (s Spec) TaskCount() int { return 2*s.Images + s.Diffs + 5 }

// Nominal per-type profiles.  Runtimes (seconds on the reference CPU) are
// shaped like published Montage profiles -- mProject dominates, the serial
// tail (mConcatFit..mJPEG) is short -- and are rescaled as a whole to hit
// Spec.TotalCPU, so only the ratios matter.  Sizes (bytes) are likewise
// nominal; intermediates are rescaled to hit the CCR target.
var (
	rtProfiles = map[string]trace.Profile{
		"mProject":   {Base: 200, Jitter: 0.25},
		"mDiffFit":   {Base: 12, Jitter: 0.25},
		"mConcatFit": {Base: 15, Jitter: 0.10},
		"mBgModel":   {Base: 30, Jitter: 0.10},
		"mBackground": {
			Base: 15, Jitter: 0.25,
		},
		"mAdd":    {Base: 80, Jitter: 0.10},
		"mShrink": {Base: 20, Jitter: 0.10},
		"mJPEG":   {Base: 10, Jitter: 0.10},
	}
	szInput     = trace.Profile{Base: 3 * units.MB, Jitter: 0.10}   // 2MASS FITS plate
	szProjected = trace.Profile{Base: 6.6 * units.MB, Jitter: 0.10} // reprojected image
	szFit       = trace.Profile{Base: 5 * units.KB, Jitter: 0.20}   // plane-fit coefficients
	szSmallTbl  = trace.Profile{Base: 50 * units.KB}                // metadata tables
	szTemplate  = trace.Profile{Base: 10 * units.KB}                // template header
	szJPEG      = trace.Profile{Base: 500 * units.KB}               // preview image
	shrinkRatio = 0.10                                              // mShrink output vs mosaic
)

// Generate builds, finalizes and calibrates the workflow described by s.
func Generate(s Spec) (*dag.Workflow, error) {
	return GenerateContext(context.Background(), s)
}

// ctxCheckEvery is how many tasks the builder adds between checks of
// its context: often enough that a canceled 20-degree mosaic stops
// within milliseconds, rarely enough to cost nothing measurable.
const ctxCheckEvery = 1024

// GenerateContext is Generate that gives up with ctx's error once ctx
// is done, checking it every ctxCheckEvery tasks.
func GenerateContext(ctx context.Context, s Spec) (*dag.Workflow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sampler := trace.NewSampler(s.Seed)
	w := dag.New(s.Name)

	b := &builder{ctx: ctx, w: w, s: s, sampler: sampler}
	if err := b.build(); err != nil {
		return nil, err
	}
	// Finalize fixes the graph and sorts the files once; the calibration
	// passes then rescale runtimes and sizes in place, on a workflow no
	// one else holds yet, walking the file view Finalize built.
	if err := w.Finalize(); err != nil {
		return nil, fmt.Errorf("montage: %w", err)
	}
	if err := b.calibrateRuntimes(); err != nil {
		return nil, err
	}
	if s.TargetCCR > 0 {
		if err := b.calibrateCCR(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// builder accumulates the workflow plus the bookkeeping needed for the
// two calibration passes.
type builder struct {
	ctx     context.Context
	w       *dag.Workflow
	s       Spec
	sampler *trace.Sampler

	taskRuntimes []float64       // parallel to task IDs
	fixedFiles   map[string]bool // external inputs + staged-out outputs
}

func (b *builder) addFile(name string, p trace.Profile, output bool) error {
	_, err := b.w.AddFile(name, b.sampler.SampleBytes(p), output)
	return err
}

func (b *builder) addFixedFile(name string, size units.Bytes, output bool) error {
	if b.fixedFiles == nil {
		b.fixedFiles = make(map[string]bool)
	}
	b.fixedFiles[name] = true
	_, err := b.w.AddFile(name, size, output)
	return err
}

func (b *builder) addTask(name, typ string, inputs, outputs []string) error {
	if len(b.taskRuntimes)%ctxCheckEvery == 0 {
		if err := b.ctx.Err(); err != nil {
			return err
		}
	}
	rt := b.sampler.Sample(rtProfiles[typ])
	// Runtime 0 placeholder; calibrateRuntimes sets the real values via a
	// rebuild-free path: we record samples and write them scaled.
	if _, err := b.w.AddTask(name, typ, units.Duration(rt), inputs, outputs); err != nil {
		return err
	}
	b.taskRuntimes = append(b.taskRuntimes, rt)
	return nil
}

func (b *builder) build() error {
	s := b.s
	if b.fixedFiles == nil {
		b.fixedFiles = make(map[string]bool)
	}
	// Every per-image and per-pair file name is formatted once and shared
	// by all the tasks that read or write it.
	inNames := formatNames("2mass-%04d.fits", s.Images)
	projNames := formatNames("proj-%04d.fits", s.Images)
	bgNames := formatNames("bg-%04d.fits", s.Images)
	// Shared template header, used by every mProject and mDiffFit.
	if err := b.addFile("region.hdr", szTemplate, false); err != nil {
		return err
	}
	// External input images and their reprojections.
	for i := 0; i < s.Images; i++ {
		if err := b.addFile(inNames[i], szInput, false); err != nil {
			return err
		}
		b.fixedFiles[inNames[i]] = true // inputs keep their nominal size
		if err := b.addFile(projNames[i], szProjected, false); err != nil {
			return err
		}
	}
	for i := 0; i < s.Images; i++ {
		if err := b.addTask(
			fmt.Sprintf("mProject-%04d", i), "mProject",
			[]string{inNames[i], "region.hdr"}, projNames[i:i+1],
		); err != nil {
			return err
		}
	}
	// Overlap pairs and mDiffFit tasks.
	pairs := overlapPairs(s.Images, s.Diffs)
	fitNames := formatNames("fit-%05d.txt", len(pairs))
	for d, p := range pairs {
		if err := b.addFile(fitNames[d], szFit, false); err != nil {
			return err
		}
		if err := b.addTask(
			fmt.Sprintf("mDiffFit-%05d", d), "mDiffFit",
			[]string{projNames[p[0]], projNames[p[1]], "region.hdr"}, fitNames[d:d+1],
		); err != nil {
			return err
		}
	}
	// Serial spine: mConcatFit -> mBgModel.
	if err := b.addFile("fits.tbl", szSmallTbl, false); err != nil {
		return err
	}
	if err := b.addTask("mConcatFit", "mConcatFit", fitNames, []string{"fits.tbl"}); err != nil {
		return err
	}
	if err := b.addFile("corrections.tbl", szSmallTbl, false); err != nil {
		return err
	}
	if err := b.addTask("mBgModel", "mBgModel", []string{"fits.tbl"}, []string{"corrections.tbl"}); err != nil {
		return err
	}
	// Background rectification fan.
	for i := 0; i < s.Images; i++ {
		if err := b.addFile(bgNames[i], szProjected, false); err != nil {
			return err
		}
	}
	for i := 0; i < s.Images; i++ {
		if err := b.addTask(
			fmt.Sprintf("mBackground-%04d", i), "mBackground",
			[]string{projNames[i], "corrections.tbl"}, bgNames[i:i+1],
		); err != nil {
			return err
		}
	}
	// Final serial spine: mAdd -> mShrink -> mJPEG.
	if err := b.addFixedFile("mosaic.fits", s.MosaicBytes, true); err != nil {
		return err
	}
	if err := b.addTask("mAdd", "mAdd", bgNames, []string{"mosaic.fits"}); err != nil {
		return err
	}
	if err := b.addFile("mosaic-small.fits",
		trace.Profile{Base: float64(s.MosaicBytes) * shrinkRatio}, false); err != nil {
		return err
	}
	if err := b.addTask("mShrink", "mShrink", []string{"mosaic.fits"}, []string{"mosaic-small.fits"}); err != nil {
		return err
	}
	if err := b.addFixedFile("mosaic.jpg", units.Bytes(szJPEG.Base), true); err != nil {
		return err
	}
	return b.addTask("mJPEG", "mJPEG", []string{"mosaic-small.fits"}, []string{"mosaic.jpg"})
}

// formatNames returns format applied to each index 0..n-1.
func formatNames(format string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(format, i)
	}
	return out
}

// calibrateRuntimes rescales every sampled runtime so their sum equals
// Spec.TotalCPU.
func (b *builder) calibrateRuntimes() error {
	factor, err := trace.CalibrationFactor(b.taskRuntimes, b.s.TotalCPU.Seconds())
	if err != nil {
		return fmt.Errorf("montage: runtime calibration: %w", err)
	}
	for i, rt := range b.taskRuntimes {
		b.w.Tasks()[i].Runtime = units.Duration(rt * factor)
	}
	return nil
}

// calibrateCCR rescales intermediate file sizes (everything except the
// external inputs and the staged-out outputs, whose sizes are anchored by
// the paper) so the workflow's total file bytes satisfy
//
//	CCR = totalBytes / B / totalRuntime.
func (b *builder) calibrateCCR() error {
	s := b.s
	targetTotal := s.TargetCCR * s.Bandwidth.BytesPerSecond() * s.TotalCPU.Seconds()
	// One name-sorted file view serves both passes.  The sums must run in
	// name order: float addition order decides the calibrated sizes' bytes.
	files := b.w.Files()
	var fixed, scalable float64
	for _, f := range files {
		if b.fixedFiles[f.Name] {
			fixed += float64(f.Size)
		} else {
			scalable += float64(f.Size)
		}
	}
	need := targetTotal - fixed
	if need <= 0 {
		return fmt.Errorf("montage: CCR %v unreachable: fixed files alone are %.0f bytes of a %.0f byte budget",
			s.TargetCCR, fixed, targetTotal)
	}
	factor, err := trace.CalibrationFactor([]float64{scalable}, need)
	if err != nil {
		return fmt.Errorf("montage: CCR calibration: %w", err)
	}
	for _, f := range files {
		if !b.fixedFiles[f.Name] {
			f.Size = units.BytesOf(float64(f.Size) * factor)
		}
	}
	return nil
}

// overlapPairs lays n images on a near-square grid and returns exactly
// want neighbor pairs, enumerating right, down, down-right and down-left
// adjacencies row-major (the overlap pattern of a gridded sky survey) and
// extending with wider strides when the geometric pairs run out.
func overlapPairs(n, want int) [][2]int {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	pairs := make([][2]int, 0, want)
	add := func(a, bIdx int) bool {
		if bIdx >= n || len(pairs) >= want {
			return len(pairs) < want
		}
		pairs = append(pairs, [2]int{a, bIdx})
		return len(pairs) < want
	}
	for i := 0; i < n && len(pairs) < want; i++ {
		col := i % cols
		if col+1 < cols {
			add(i, i+1) // right
		}
		add(i, i+cols) // down
		if col+1 < cols {
			add(i, i+cols+1) // down-right
		}
		if col > 0 {
			add(i, i+cols-1) // down-left
		}
	}
	// Wider strides for dense overlap requests.
	for stride := 2; len(pairs) < want; stride++ {
		if stride >= n {
			// Fall back to repeating near-neighbor pairs; Montage DAGs
			// never need this, but stay total for tiny synthetic inputs.
			for i := 0; len(pairs) < want; i = (i + 1) % (n - 1) {
				pairs = append(pairs, [2]int{i, i + 1})
			}
			break
		}
		for i := 0; i+stride < n && len(pairs) < want; i++ {
			pairs = append(pairs, [2]int{i, i + stride})
		}
	}
	return pairs[:want]
}
