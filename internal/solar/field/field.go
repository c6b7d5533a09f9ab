// Package field evaluates the spatio-temporal solar field over a roof:
// for every suitable grid cell and every calendar timestep it combines
// sun position, ESRA clear-sky irradiance, synthetic (or recorded)
// weather, GHI decomposition, plane-of-array transposition and the
// DSM-derived horizon shadows into the local irradiance G(i,j,t) and
// actual module temperature T_act(i,j,t).
//
// This is the Go equivalent of the GIS software infrastructure the
// paper adopts from Bottaccioli et al. [15] (§IV): the full-year
// 15-minute "solar data extraction" stage whose outputs feed the
// floorplanning algorithm.
//
// Holding the full trace matrix in memory is infeasible at the paper's
// scale (≈12k cells × 35k steps), so the evaluator streams: Stats
// accumulates per-cell histograms (for the suitability percentiles)
// in one pass, and StreamTraces replays the calendar for just the
// cells covered by a candidate placement.
//
// The statistics pass runs a sector-sweep kernel: day steps are held
// in an SoA table grouped by horizon sector and sorted by solar
// elevation tangent, so each cell resolves the shadow boundary of a
// sector with one binary search instead of a per-timestep test (see
// sector.go and docs/ARCHITECTURE.md "Field hot path"). The retired
// calendar-order loop survives as StatsPercentileScalar, the pinned
// equivalence reference.
//
// # Artifact cache
//
// Config.Cache plugs in the persistent artifact cache
// (internal/fieldcache): horizon maps and statistics results are
// keyed by composite fingerprints of all their inputs and reused
// across processes, bit-identically. See the Cache field's
// documentation.
//
// # Concurrency
//
// The engine is parallel by default and deterministic by
// construction. Config.Workers bounds the worker pool
// (internal/parallel) used for the per-roof horizon march, the
// per-timestep sky precompute and the per-cell statistics pass:
// 0 selects runtime.GOMAXPROCS(0), 1 runs the fully serial reference
// path (no goroutines), and any value produces bit-identical results
// because workers only ever write disjoint index ranges and never
// share accumulators. Evaluator.StatsPercentileSerial exposes the
// serial reference directly for equivalence testing. An Evaluator is
// immutable after New, so one field may serve concurrent Stats,
// StreamTraces and CellIrradiance callers (the batch runner relies on
// this to share a field across scenario variants). When Workers != 1
// the Weather provider must tolerate concurrent Sample calls — both
// bundled providers (weather.Synthetic, weather.Trace) are stateless
// after construction and qualify.
//
// # Memoization
//
// Sun positions and clear-sky irradiance are scenario-wide: they
// depend on the calendar, the site and the turbidity climatology, but
// not on the weather realisation, the roof geometry or any cell. The
// package memoizes that per-timestep astronomy in a bounded
// process-wide cache keyed by (site, turbidity, calendar
// fingerprint), so constructing several evaluators over the same
// calendar — the three Table I roofs, a batch of config variants, a
// sweep of weather seeds — computes it once. See ResetAstroCache.
//
// # Fidelity
//
// Construction cost is dominated by the horizon map and the sky
// precompute, both proportional to fidelity: the paper's full-year
// 15-minute calendar with fine horizon sectors takes minutes per
// roof, while the reduced calendar + coarse horizon used by the Fast
// path of the pvfloor facade takes well under a second. The physics
// pipeline is identical in both; only sampling density changes.
package field

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsm"
	"repro/internal/fieldcache"
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/solar/clearsky"
	"repro/internal/solar/decomp"
	"repro/internal/solar/horizon"
	"repro/internal/solar/poa"
	"repro/internal/solar/sunpos"
	"repro/internal/stats"
	"repro/internal/timegrid"
	"repro/internal/weather"
)

// DecompModel selects the GHI decomposition model.
type DecompModel int

const (
	// DecompErbs uses the Erbs clearness-index correlation.
	DecompErbs DecompModel = iota
	// DecompEngerer uses the Engerer-style logistic model (ref. [18]).
	DecompEngerer
)

// Config assembles the inputs of the solar field evaluation.
type Config struct {
	// Site is the geographic location of the roof.
	Site sunpos.Site
	// Scene is the DSM scene with the roof region.
	Scene *dsm.Scene
	// Suitable is the roof-local placement mask (from
	// Scene.SuitableArea); statistics are only accumulated for
	// suitable cells.
	Suitable *geom.Mask
	// Weather provides the clear-sky index and ambient temperature.
	Weather weather.Provider
	// Grid is the simulation calendar.
	Grid *timegrid.Grid
	// MonthlyTL is the Linke turbidity climatology.
	MonthlyTL [12]float64
	// Sky selects the diffuse transposition model.
	Sky poa.SkyModel
	// Decomposition selects the GHI splitting model.
	Decomposition DecompModel
	// Albedo is the ground reflectance (default 0.2 when zero).
	Albedo float64
	// ThermalK couples irradiance to module temperature,
	// T_act = T_amb + k·G (default weather.DefaultThermalK when 0).
	ThermalK float64
	// DaylightOnly, when set, excludes night samples from the
	// percentile statistics (ablation knob; the paper's NT covers
	// all measures).
	DaylightOnly bool
	// Horizon tunes horizon-map construction.
	Horizon horizon.Options
	// SharedHorizon, when non-nil, is a prebuilt horizon map covering
	// at least the roof region — typically the tile-level map a
	// district run builds once and shares across every roof. New slices
	// the roof's view out of it instead of ray-marching, provided the
	// map covers Scene.RoofRect and its recorded build options
	// (horizon.Map.BuildOptions) equal the resolved Horizon options;
	// otherwise it silently falls back to building the roof as a
	// one-region tile (TileHorizon). The sliced view is bit-identical to
	// that build (each cell's horizon depends only on the raster and
	// the cell), so results are unchanged either way.
	SharedHorizon *horizon.Map
	// Workers bounds the concurrency of evaluator construction — the
	// roof's horizon march and the sky precompute — and of the
	// statistics pass: 0 = runtime.GOMAXPROCS(0), 1 = serial reference
	// path. Results are bit-identical for every setting; see the
	// package documentation.
	Workers int
	// Cache, when non-nil, is the persistent artifact cache: the roof's
	// horizon map (one "tilehorizon" artifact, keyed like a one-region
	// TileHorizon) and per-cell statistics are looked up by composite
	// fingerprint before being computed, and stored after. Cached
	// artifacts are bit-identical to cold computation. Statistics
	// caching additionally requires the Weather provider to implement
	// weather.Fingerprinter (both bundled providers do); otherwise
	// only horizon maps are cached.
	Cache *fieldcache.Cache
}

// Evaluator is a configured, reusable solar field. It is logically
// immutable after New (the only internal mutation is the memoized
// result behind CachedStats, guarded by a sync.Once) and safe for
// concurrent use.
type Evaluator struct {
	cfg   Config
	esra  *clearsky.ESRA
	hmap  *horizon.Map
	plane poa.Plane
	// statsOnce guards the memoized default statistics; see
	// CachedStats.
	statsOnce sync.Once
	statsMemo *CellStats
	statsErr  error
	// sky[i] caches the cell-independent state of calendar step i.
	sky []skyState
	// day is the SoA sector-sweep table derived from sky: night steps
	// compacted out, day steps grouped by horizon sector and sorted
	// by elevation tangent. See sector.go.
	day dayTable
	// suitIdx lists the dense indices of suitable cells in row-major
	// order (the statistics pass iterates it instead of re-scanning
	// the mask).
	suitIdx []int32
	// horizonFromCache records whether hmap was obtained without
	// ray-marching: restored from the artifact cache or sliced from a
	// shared tile-level map.
	horizonFromCache bool
	// statsFP is the statistics fingerprint prefix (everything but
	// the percentile); empty when statistics caching is unavailable.
	statsFP string
	// daySteps counts the calendar steps with the sun up and positive
	// irradiance (the steps the per-cell inner loop runs for).
	daySteps uint64
	// night aggregates the cell-independent night-step contributions
	// to the statistics (every cell sees irradiance 0 and the same
	// ambient temperature at night, so this is computed once).
	night nightAgg
}

// nightAgg is the shared accumulation of all night steps.
type nightAgg struct {
	count uint64
	// tact holds the binned ambient temperatures of night steps,
	// using the same bin layout as the per-cell T_act histograms.
	tact *stats.Histogram
}

// skyState is the per-timestep state shared by all cells.
type skyState struct {
	up        bool
	sector    int32
	tanElev   float64
	beamPart  float64 // shadow-sensitive POA irradiance (beam + circumsolar)
	diffPart  float64 // SVF-scaled diffuse POA irradiance
	reflected float64
	ambient   float64
}

// New builds the evaluator: constructs the clear-sky model, the
// horizon map of the roof region, and precomputes the per-timestep
// sky states.
func New(cfg Config) (*Evaluator, error) {
	if cfg.Scene == nil || cfg.Suitable == nil || cfg.Weather == nil || cfg.Grid == nil {
		return nil, fmt.Errorf("field: Scene, Suitable, Weather and Grid are all required")
	}
	roof := cfg.Scene.RoofRect
	if cfg.Suitable.W() != roof.W() || cfg.Suitable.H() != roof.H() {
		return nil, fmt.Errorf("field: suitable mask %dx%d does not match roof region %dx%d",
			cfg.Suitable.W(), cfg.Suitable.H(), roof.W(), roof.H())
	}
	if cfg.Albedo == 0 {
		cfg.Albedo = 0.2
	}
	if cfg.ThermalK == 0 {
		cfg.ThermalK = weather.DefaultThermalK
	}
	esra, err := clearsky.New(cfg.Site, cfg.MonthlyTL)
	if err != nil {
		return nil, err
	}
	hmap, hfp, hitCache, err := horizonMap(cfg, roof)
	if err != nil {
		return nil, err
	}
	plane := poa.Plane{
		SlopeRad:   cfg.Scene.RoofPlane.SlopeRad(),
		AzimuthRad: cfg.Scene.RoofPlane.AspectRad(),
		Albedo:     cfg.Albedo,
		Model:      cfg.Sky,
	}
	if err := plane.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{cfg: cfg, esra: esra, hmap: hmap, plane: plane, horizonFromCache: hitCache}
	e.precomputeSky()
	e.day = buildDayTable(e.sky, hmap.Sectors())
	e.indexSuitable()
	e.precomputeNight()
	e.statsFP = statsFingerprint(cfg, hfp)
	return e, nil
}

// HorizonFromCache reports whether the evaluator's horizon map was
// obtained without ray-marching: restored from the artifact cache or
// sliced from Config.SharedHorizon.
func (e *Evaluator) HorizonFromCache() bool { return e.horizonFromCache }

// statsPassCount tallies cold executions of the per-cell statistics
// kernel process-wide; cache tests use it to assert that warm runs
// recompute nothing.
var statsPassCount atomic.Uint64

// StatsPassCount reports how many times the statistics pass has been
// computed (rather than served from cache or memo) in this process.
func StatsPassCount() uint64 { return statsPassCount.Load() }

// precomputeSky evaluates the cell-independent sky state once per
// calendar step: the memoized astronomy (shared across evaluators)
// plus this evaluator's weather, decomposition and transposition.
// The pass is chunked over timesteps on the worker pool; every index
// is written exactly once, so the result does not depend on the
// worker count.
func (e *Evaluator) precomputeSky() {
	astro := astroTable(e.cfg.Site, e.cfg.MonthlyTL, e.cfg.Grid, e.esra, e.cfg.Workers)
	n := e.cfg.Grid.Len()
	e.sky = make([]skyState, n)
	parallel.Chunks(n, e.cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e.sky[i] = e.skyFromAstro(e.cfg.Grid.At(i), astro[i])
		}
	})
}

// skyFromAstro combines the memoized astronomy of one step with the
// evaluator's weather realisation and plane transposition.
func (e *Evaluator) skyFromAstro(t time.Time, a astroStep) skyState {
	smp := e.cfg.Weather.Sample(t)
	st := skyState{ambient: smp.AmbientC}
	if !a.pos.Up() {
		return st
	}
	ghi := smp.ClearSkyIndex * a.ghiClear
	if ghi <= 0 {
		return st
	}
	var split decomp.Split
	switch e.cfg.Decomposition {
	case DecompEngerer:
		split = decomp.Engerer(ghi, a.ghiClear, a.pos, decomp.Engerer2)
	default:
		split = decomp.Erbs(ghi, a.pos)
	}
	comps := e.plane.Transpose(a.pos, split.DNI, split.DHI, ghi)

	st.up = true
	st.sector = int32(e.hmap.SectorOf(a.pos.AzimuthRad))
	st.tanElev = math.Tan(a.pos.ElevRad)
	st.beamPart = comps.Beam + comps.Circumsolar
	st.diffPart = comps.Diffuse - comps.Circumsolar
	st.reflected = comps.Reflected
	return st
}

// indexSuitable caches the dense indices of suitable cells.
func (e *Evaluator) indexSuitable() {
	w, h := e.cfg.Suitable.W(), e.cfg.Suitable.H()
	e.suitIdx = make([]int32, 0, e.cfg.Suitable.Count())
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if e.cfg.Suitable.Get(geom.Cell{X: x, Y: y}) {
				e.suitIdx = append(e.suitIdx, int32(y*w+x))
			}
		}
	}
}

// precomputeNight folds the cell-independent night steps into one
// shared aggregate so the statistics pass touches night steps once
// instead of once per cell.
func (e *Evaluator) precomputeNight() {
	e.night.tact = stats.NewHistogram(tLo, tHi, tBins)
	for i := range e.sky {
		st := &e.sky[i]
		if st.up {
			e.daySteps++
			continue
		}
		e.night.count++
		e.night.tact.Add(st.ambient)
	}
}

// CellIrradiance returns the plane-of-array irradiance at the
// roof-local cell for calendar step i, accounting for the cell's
// horizon shadow and sky view factor.
func (e *Evaluator) CellIrradiance(i int, c geom.Cell) float64 {
	st := &e.sky[i]
	if !st.up {
		return 0
	}
	return e.cellIrr(st, c.Y*e.cfg.Suitable.W()+c.X)
}

// cellIrr is the dense-index hot path.
func (e *Evaluator) cellIrr(st *skyState, cellIdx int) float64 {
	g := st.diffPart*e.hmap.SVFIdx(cellIdx) + st.reflected
	if !e.hmap.ShadowedIdx(cellIdx, int(st.sector), st.tanElev) {
		g += st.beamPart
	}
	return g
}

// Ambient returns the ambient temperature at calendar step i.
func (e *Evaluator) Ambient(i int) float64 { return e.sky[i].ambient }

// ThermalK returns the configured irradiance→temperature coupling.
func (e *Evaluator) ThermalK() float64 { return e.cfg.ThermalK }

// Grid returns the simulation calendar.
func (e *Evaluator) Grid() *timegrid.Grid { return e.cfg.Grid }

// Plane returns the roof plane-of-array configuration.
func (e *Evaluator) Plane() poa.Plane { return e.plane }

// CellStats holds the per-cell distribution summaries the suitability
// metric consumes. Arrays are row-major over the roof region; entries
// for unsuitable cells are NaN.
type CellStats struct {
	W, H int
	// Pct is the percentile the GPct/TactPct arrays hold (the
	// paper's choice is 75).
	Pct float64
	// GPct is the Pct-th percentile of plane-of-array irradiance.
	GPct []float64
	// GMean is the mean plane-of-array irradiance.
	GMean []float64
	// TactPct is the Pct-th percentile of the actual module
	// temperature T_act = T_amb + k·G.
	TactPct []float64
	// Samples is the number of samples accumulated per cell.
	Samples uint64
}

// At returns (gpct, gmean, tactpct) for a roof-local cell.
func (cs *CellStats) At(c geom.Cell) (gpct, gmean, tact float64) {
	i := c.Y*cs.W + c.X
	return cs.GPct[i], cs.GMean[i], cs.TactPct[i]
}

// Valid reports whether the cell carries statistics.
func (cs *CellStats) Valid(c geom.Cell) bool {
	return !math.IsNaN(cs.GPct[c.Y*cs.W+c.X])
}

// Histogram binning for the stats pass. Irradiance saturates below
// 1400 W/m² (clear-sky + enhancement); temperature within climate +
// k·G bounds.
const (
	gBins, gLo, gHi = 700, 0.0, 1400.0  // 2 W/m² bins
	tBins, tLo, tHi = 360, -30.0, 105.0 // 0.375 °C bins
)

// Stats streams the whole calendar and returns per-cell summaries at
// the paper's 75th percentile. See StatsPercentile.
func (e *Evaluator) Stats() (*CellStats, error) { return e.StatsPercentile(75) }

// CachedStats returns the evaluator's memoized default statistics
// (the paper's 75th percentile), computing them on the first call.
// The statistics depend only on the field itself — not on module
// count, planner options or topology — so every planning run over
// one field can share the same result; pvfloor.RunWithField (and
// through it the batch runner) relies on this to make variant sweeps
// pay for the pass once. Safe for concurrent callers; the returned
// CellStats is shared and must be treated as read-only.
func (e *Evaluator) CachedStats() (*CellStats, error) {
	e.statsOnce.Do(func() { e.statsMemo, e.statsErr = e.Stats() })
	return e.statsMemo, e.statsErr
}

// StatsPercentile streams the whole calendar and returns per-cell
// summaries at the requested percentile for every suitable cell (the
// suitability-metric ablation sweeps this). The pass runs the
// sector-sweep kernel (see sector.go), chunked over the suitable
// cells on a bounded worker pool sized by Config.Workers; per-cell
// accumulation is fully independent, so the output is bit-identical
// for every worker count. Night steps — identical for all cells — are
// folded in from the shared aggregate computed at construction.
//
// With Config.Cache set (and a fingerprintable weather provider), the
// result is first looked up in the persistent artifact cache and, on
// a miss, stored after computation; cache hits are bit-identical to
// cold computation.
func (e *Evaluator) StatsPercentile(pct float64) (*CellStats, error) {
	if cs, ok := e.loadCachedStats(pct); ok {
		return cs, nil
	}
	cs, err := e.statsPercentile(pct, e.cfg.Workers)
	if err == nil && len(e.suitIdx) > 0 {
		e.storeCachedStats(pct, cs)
	}
	return cs, err
}

// StatsPercentileSerial runs the statistics pass single-threaded on
// the calling goroutine, regardless of Config.Workers. It exists so
// equivalence tests (and suspicious callers) can compare the parallel
// pass against a goroutine-free execution of the same arithmetic —
// and for that reason it always computes, bypassing the persistent
// artifact cache even when Config.Cache is set (a comparison against
// the artifact the parallel pass just stored would be vacuous).
func (e *Evaluator) StatsPercentileSerial(pct float64) (*CellStats, error) {
	return e.statsPercentile(pct, 1)
}

// StatsPercentileScalar runs the pre-sector-sweep scalar reference on
// the calling goroutine: the calendar-ordered per-(cell, timestep)
// loop with an explicit shadow test per sample. Equivalence tests pin
// the sector kernel against it — histogram-derived outputs (GPct,
// TactPct, Samples) must match bit-for-bit since both accumulate
// identical counts; GMean may differ by float rounding only, because
// the kernel sums in its documented sector order rather than calendar
// order.
func (e *Evaluator) StatsPercentileScalar(pct float64) (*CellStats, error) {
	cs, err := e.statsFrame(pct)
	if err != nil || len(e.suitIdx) == 0 {
		return cs, err
	}
	e.statsChunkScalar(cs, e.suitIdx)
	return cs, nil
}

// statsFrame allocates and NaN-fills the result frame shared by the
// kernel and the scalar reference.
func (e *Evaluator) statsFrame(pct float64) (*CellStats, error) {
	if pct < 0 || pct > 100 {
		return nil, fmt.Errorf("field: percentile %g outside [0,100]", pct)
	}
	w, h := e.cfg.Suitable.W(), e.cfg.Suitable.H()
	cs := &CellStats{
		W: w, H: h, Pct: pct,
		GPct:    make([]float64, w*h),
		GMean:   make([]float64, w*h),
		TactPct: make([]float64, w*h),
	}
	for i := range cs.GPct {
		cs.GPct[i] = math.NaN()
		cs.GMean[i] = math.NaN()
		cs.TactPct[i] = math.NaN()
	}
	if len(e.suitIdx) == 0 {
		return cs, nil
	}
	cs.Samples = e.daySteps
	if !e.cfg.DaylightOnly {
		cs.Samples += e.night.count
	}
	return cs, nil
}

// statsPercentile is the pure computation: it never consults or
// populates the artifact cache (StatsPercentile layers that on).
func (e *Evaluator) statsPercentile(pct float64, workers int) (*CellStats, error) {
	cs, err := e.statsFrame(pct)
	if err != nil || len(e.suitIdx) == 0 {
		return cs, err
	}
	statsPassCount.Add(1)
	parallel.Chunks(len(e.suitIdx), workers, func(lo, hi int) {
		scratch := scratchPool.Get().(*statsScratch)
		e.statsSectorChunk(cs, e.suitIdx[lo:hi], scratch)
		scratchPool.Put(scratch)
	})
	return cs, nil
}

// statsChunkScalar is the retired hot path, kept as the equivalence
// reference for the sector kernel: it accumulates one contiguous run
// of suitable cells across the whole calendar in calendar order,
// testing the horizon shadow per (cell, timestep).
func (e *Evaluator) statsChunkScalar(cs *CellStats, cells []int32) {
	gBank := stats.NewHistogramBank(len(cells), gLo, gHi, gBins)
	tBank := stats.NewHistogramBank(len(cells), tLo, tHi, tBins)
	gSum := make([]float64, len(cells))

	k := e.cfg.ThermalK
	for i := range e.sky {
		st := &e.sky[i]
		if !st.up {
			continue
		}
		for j, idx := range cells {
			g := e.cellIrr(st, int(idx))
			gBank.Add(j, g)
			tBank.Add(j, st.ambient+k*g)
			gSum[j] += g
		}
	}

	withNight := !e.cfg.DaylightOnly && e.night.count > 0
	for j, idx := range cells {
		if withNight {
			// Nights contribute irradiance 0 and the shared ambient
			// distribution; fold them in once per cell in O(bins).
			gBank.AddBulk(j, 0, uint32(e.night.count))
			if err := tBank.MergeHistogram(j, e.night.tact); err != nil {
				// Impossible by construction (identical bin layout);
				// skip the cell rather than corrupt it.
				continue
			}
		}
		gp, err := gBank.Percentile(j, cs.Pct)
		if err != nil {
			continue
		}
		tp, err := tBank.Percentile(j, cs.Pct)
		if err != nil {
			continue
		}
		cs.GPct[idx] = gp
		cs.TactPct[idx] = tp
		cs.GMean[idx] = gSum[j] / float64(cs.Samples)
	}
}

// CellSummary streams the full irradiance-sample distribution of one
// roof-local cell through a fixed-size accumulator and summarises it —
// the per-cell view behind the paper's §III-C argument that irradiance
// distributions are strongly right-skewed, making the mean
// unrepresentative and the 75th percentile the better suitability
// statistic.
//
// The moments and extrema are exact (bit-identical to materialising
// the calendar-ordered sample vector and running stats.Summarize);
// the percentiles are histogram estimates on the statistics pass's
// irradiance binning (2 W/m² resolution, cumulative-count convention
// — the same convention the suitability statistics use, rather than
// the order-statistic interpolation of stats.Summarize). At paper
// scale this replaces a ~35k-sample allocation and sort per call with
// one histogram.
func (e *Evaluator) CellSummary(c geom.Cell, daylightOnly bool) (stats.Summary, error) {
	w, h := e.cfg.Suitable.W(), e.cfg.Suitable.H()
	if c.X < 0 || c.X >= w || c.Y < 0 || c.Y >= h {
		return stats.Summary{}, fmt.Errorf("field: cell %v outside roof region", c)
	}
	idx := c.Y*w + c.X
	// Map summary-sample positions to calendar steps without
	// materialising values: with daylightOnly the day steps are
	// enumerated in calendar order, otherwise every step contributes
	// (nights as zero).
	var steps []int32
	n := len(e.sky)
	if daylightOnly {
		steps = make([]int32, 0, e.daySteps)
		for i := range e.sky {
			if e.sky[i].up {
				steps = append(steps, int32(i))
			}
		}
		n = len(steps)
	}
	at := func(i int) float64 {
		if steps != nil {
			i = int(steps[i])
		}
		st := &e.sky[i]
		if !st.up {
			return 0
		}
		return e.cellIrr(st, idx)
	}
	return stats.SummarizeBinned(gLo, gHi, gBins, n, at)
}

// StreamTraces replays the calendar for the given roof-local cells,
// invoking fn once per step with the irradiance and actual module
// temperature of each requested cell. The g and tact slices are
// reused across invocations; fn must not retain them.
func (e *Evaluator) StreamTraces(cells []geom.Cell, fn func(step int, g, tact []float64)) error {
	w := e.cfg.Suitable.W()
	idxs := make([]int, len(cells))
	for i, c := range cells {
		if c.X < 0 || c.X >= w || c.Y < 0 || c.Y >= e.cfg.Suitable.H() {
			return fmt.Errorf("field: trace cell %v outside roof region", c)
		}
		idxs[i] = c.Y*w + c.X
	}
	g := make([]float64, len(cells))
	tact := make([]float64, len(cells))
	k := e.cfg.ThermalK
	for step := range e.sky {
		st := &e.sky[step]
		if !st.up {
			for j := range idxs {
				g[j] = 0
				tact[j] = st.ambient
			}
		} else {
			for j, idx := range idxs {
				gj := e.cellIrr(st, idx)
				g[j] = gj
				tact[j] = st.ambient + k*gj
			}
		}
		fn(step, g, tact)
	}
	return nil
}
