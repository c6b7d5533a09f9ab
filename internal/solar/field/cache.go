package field

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/dsm"
	"repro/internal/fieldcache"
	"repro/internal/geom"
	"repro/internal/solar/horizon"
	"repro/internal/weather"
)

// Artifact kinds in the persistent cache.
const (
	kindStats       = "stats"
	kindTileHorizon = "tilehorizon"
)

// statsVersion is baked into every statistics fingerprint; bump it
// whenever the kernel's output semantics change (e.g. the documented
// GMean summation order) so stale artifacts from older binaries are
// never served.
const statsVersion = "stats-v2-sector"

// horizonMap returns the evaluator's horizon map: sliced out of
// Config.SharedHorizon when the shared map covers the roof and was
// built with the same resolved options, otherwise the roof as a
// one-region tile through TileHorizon — restored from Config.Cache
// when it holds a verified entry, else ray-marched on Config.Workers
// workers (and stored for the next process). The returned fingerprint
// is the roof's tile fingerprint whenever a cache is configured — also
// on the shared path — so the statistics cache key is identical
// whether the horizon came from a slice, the cache, or a cold build.
func horizonMap(cfg Config, roof geom.Rect) (*horizon.Map, string, bool, error) {
	r, regions := cfg.Scene.Raster, []geom.Rect{roof}
	opts := cfg.Horizon.Resolved(r.CellSize())
	if sh := cfg.SharedHorizon; sh != nil && sh.Covers(roof) && sh.BuildOptions() == opts {
		if m, err := sh.Slice(roof); err == nil {
			var fp string
			if cfg.Cache != nil {
				fp = horizonFingerprint(r, regions, opts)
			}
			return m, fp, true, nil
		}
	}
	return tileHorizon(r, regions, cfg.Horizon, cfg.Workers, cfg.Cache)
}

// horizonFingerprint keys a horizon artifact: the DSM raster content,
// the region list and the resolved march options, so any surface,
// region or parameter change recomputes. A roof is keyed as the
// one-region list.
func horizonFingerprint(r *dsm.Raster, regions []geom.Rect, o horizon.Options) string {
	return fmt.Sprintf("tilehorizon-v1|%s|%v|%d|%x|%x|%x|%x|%x",
		r.ContentHash(), regions,
		o.Sectors, o.MaxDistanceM, o.NearStepM, o.NearFieldM, o.FarStepM, o.EyeHeightM)
}

// TileHorizon builds (or restores) the horizon map covering every
// given region of the raster: the union of the regions is ray-marched
// in one horizon.BuildRegions pass — each unique cell once, however
// many regions overlap it — and the roof views district runs need are
// sliced from the result (see horizon.Map.Slice), bit-identical to
// one-region builds. A single roof is the one-region case. With a
// non-nil cache the whole map is stored as a single artifact keyed by
// horizonFingerprint, so a warm run restores one entry instead of
// ray-marching. workers bounds the build concurrency (0 = one per
// CPU); the map is bit-identical for every value. The returned flag
// reports a cache hit.
func TileHorizon(r *dsm.Raster, regions []geom.Rect, opts horizon.Options, workers int, cache *fieldcache.Cache) (*horizon.Map, bool, error) {
	m, _, hit, err := tileHorizon(r, regions, opts, workers, cache)
	return m, hit, err
}

// tileHorizon is TileHorizon also returning the artifact fingerprint
// ("" without a cache), which horizonMap folds into the statistics key.
func tileHorizon(r *dsm.Raster, regions []geom.Rect, opts horizon.Options, workers int, cache *fieldcache.Cache) (*horizon.Map, string, bool, error) {
	if cache == nil {
		m, err := horizon.BuildRegions(r, regions, opts, workers)
		return m, "", false, err
	}
	o := opts.Resolved(r.CellSize())
	fp := horizonFingerprint(r, regions, o)
	var bbox geom.Rect
	for i, reg := range regions {
		if i == 0 {
			bbox = reg
		} else {
			bbox = bbox.Union(reg)
		}
	}
	var snap horizon.Snapshot
	if cache.Load(kindTileHorizon, fp, &snap) {
		// The snapshot format does not carry options, but the
		// fingerprint proves this entry was built with exactly o. A
		// shape mismatch despite a verified envelope falls through and
		// recomputes rather than trust it.
		if m, err := horizon.FromSnapshot(snap, o); err == nil && m.Region() == bbox {
			return m, fp, true, nil
		}
	}
	m, err := horizon.BuildRegions(r, regions, opts, workers)
	if err != nil {
		return nil, fp, false, err
	}
	// A failed store only loses the warm start for the next process;
	// the computation in hand is unaffected.
	_ = cache.Store(kindTileHorizon, fp, m.Snapshot())
	return m, fp, false, nil
}

// statsFingerprint composes the statistics cache key prefix for the
// configuration: the horizon fingerprint (DSM + region + options), the
// calendar, the site and turbidity climatology, the transposition and
// decomposition models, the weather realisation, the suitability mask
// and the histogram layout. It returns "" — disabling statistics
// caching — when no cache is configured or the weather provider is not
// fingerprintable.
func statsFingerprint(cfg Config, horizonFP string) string {
	if cfg.Cache == nil || horizonFP == "" {
		return ""
	}
	wfp, ok := cfg.Weather.(weather.Fingerprinter)
	if !ok {
		return ""
	}
	// The roof plane's slope and aspect feed the transposition, so
	// they are part of the statistics identity even though they are
	// carried on the Scene rather than the raster.
	plane := cfg.Scene.RoofPlane
	return fmt.Sprintf("%s|%s|%s|%x|%x|%x|%x|%x|%x|%d|%d|%x|%x|%t|%s|%s|g%d[%g,%g]t%d[%g,%g]",
		statsVersion, horizonFP, cfg.Grid.Fingerprint(),
		cfg.Site.LatDeg, cfg.Site.LonDeg, cfg.Site.AltitudeM,
		plane.SlopeRad(), plane.AspectRad(),
		cfg.MonthlyTL, cfg.Sky, cfg.Decomposition,
		cfg.Albedo, cfg.ThermalK, cfg.DaylightOnly,
		wfp.Fingerprint(), maskDigest(cfg.Suitable),
		gBins, gLo, gHi, tBins, tLo, tHi)
}

// maskDigest hashes the suitable mask's exact cell set.
func maskDigest(m *geom.Mask) string {
	h := sha256.New()
	row := make([]byte, m.W())
	for y := 0; y < m.H(); y++ {
		for x := 0; x < m.W(); x++ {
			b := byte(0)
			if m.Get(geom.Cell{X: x, Y: y}) {
				b = 1
			}
			row[x] = b
		}
		h.Write(row)
	}
	return fmt.Sprintf("%dx%d-%x", m.W(), m.H(), h.Sum(nil))
}

// loadCachedStats serves a statistics result from the artifact cache
// when available. Loaded results are shape-checked against the mask
// before being trusted.
func (e *Evaluator) loadCachedStats(pct float64) (*CellStats, bool) {
	if e.statsFP == "" {
		return nil, false
	}
	var cs CellStats
	if !e.cfg.Cache.Load(kindStats, fmt.Sprintf("%s|p%x", e.statsFP, pct), &cs) {
		return nil, false
	}
	if cs.W != e.cfg.Suitable.W() || cs.H != e.cfg.Suitable.H() || cs.Pct != pct ||
		len(cs.GPct) != cs.W*cs.H || len(cs.GMean) != cs.W*cs.H || len(cs.TactPct) != cs.W*cs.H {
		return nil, false
	}
	return &cs, true
}

// storeCachedStats publishes a freshly computed statistics result.
func (e *Evaluator) storeCachedStats(pct float64, cs *CellStats) {
	if e.statsFP == "" {
		return
	}
	_ = e.cfg.Cache.Store(kindStats, fmt.Sprintf("%s|p%x", e.statsFP, pct), cs)
}
