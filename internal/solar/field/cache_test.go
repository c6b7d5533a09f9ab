package field

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fieldcache"
	"repro/internal/geom"
	"repro/internal/solar/horizon"
)

// cachedEvaluator builds a test evaluator backed by the given cache
// directory.
func cachedEvaluator(t *testing.T, dir string, mutate func(*Config)) *Evaluator {
	t.Helper()
	cache, err := fieldcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return testEvaluator(t, func(c *Config) {
		c.Cache = cache
		if mutate != nil {
			mutate(c)
		}
	})
}

// TestCacheWarmPathSkipsRecomputation: a second evaluator over the
// same configuration and cache directory must restore the horizon map
// and the statistics from disk — no ray marching, no kernel pass —
// and the restored artifacts must be bit-identical to the cold run.
func TestCacheWarmPathSkipsRecomputation(t *testing.T) {
	dir := t.TempDir()

	cold := cachedEvaluator(t, dir, nil)
	if cold.HorizonFromCache() {
		t.Fatal("first build cannot hit the horizon cache")
	}
	csCold, err := cold.StatsPercentile(75)
	if err != nil {
		t.Fatal(err)
	}

	hb, sp := horizon.BuildCount(), StatsPassCount()
	warm := cachedEvaluator(t, dir, nil)
	if !warm.HorizonFromCache() {
		t.Fatal("second build must restore the horizon map from cache")
	}
	csWarm, err := warm.StatsPercentile(75)
	if err != nil {
		t.Fatal(err)
	}
	if got := horizon.BuildCount(); got != hb {
		t.Errorf("warm run ray-marched %d horizon maps, want 0", got-hb)
	}
	if got := StatsPassCount(); got != sp {
		t.Errorf("warm run executed %d statistics passes, want 0", got-sp)
	}
	sameStats(t, "cold-vs-warm", csCold, csWarm)

	// The cached horizon must reproduce shadow tests exactly too: the
	// warm evaluator's sky and irradiance match the cold one.
	for i := 0; i < warm.Grid().Len(); i += 7 {
		for _, c := range []geom.Cell{{X: 10, Y: 10}, {X: 31, Y: 9}} {
			g1 := cold.CellIrradiance(i, c)
			g2 := warm.CellIrradiance(i, c)
			if g1 != g2 {
				t.Fatalf("step %d cell %v: cold %v vs warm %v", i, c, g1, g2)
			}
		}
	}
}

// TestCacheDistinguishesConfigurations: changing any keyed input must
// miss the cache instead of serving a stale artifact.
func TestCacheDistinguishesConfigurations(t *testing.T) {
	dir := t.TempDir()
	base := cachedEvaluator(t, dir, nil)
	if _, err := base.StatsPercentile(75); err != nil {
		t.Fatal(err)
	}

	// Different percentile: horizon hits, statistics recompute.
	sp := StatsPassCount()
	if _, err := base.StatsPercentile(90); err != nil {
		t.Fatal(err)
	}
	if StatsPassCount() == sp {
		t.Error("different percentile must recompute statistics")
	}

	// Different daylight policy: new statistics key.
	sp = StatsPassCount()
	other := cachedEvaluator(t, dir, func(c *Config) { c.DaylightOnly = true })
	if !other.HorizonFromCache() {
		t.Error("same scene must still hit the horizon cache")
	}
	if _, err := other.StatsPercentile(75); err != nil {
		t.Fatal(err)
	}
	if StatsPassCount() == sp {
		t.Error("daylight-only run must recompute statistics")
	}

	// Different horizon options: new horizon key.
	coarse := cachedEvaluator(t, dir, func(c *Config) {
		c.Horizon = horizon.Options{Sectors: 16, MaxDistanceM: 20}
	})
	if coarse.HorizonFromCache() {
		t.Error("different horizon options must not hit the horizon cache")
	}
}

// TestCacheCorruptionRecomputes: mangled cache files are rejected and
// transparently recomputed with correct results.
func TestCacheCorruptionRecomputes(t *testing.T) {
	dir := t.TempDir()
	cold := cachedEvaluator(t, dir, nil)
	csCold, err := cold.StatsPercentile(75)
	if err != nil {
		t.Fatal(err)
	}

	// Garble every artifact in the cache directory.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mangled := 0
	for _, e := range ents {
		p := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, raw[:len(raw)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		mangled++
	}
	if mangled == 0 {
		t.Fatal("cold run stored no artifacts")
	}

	hb, sp := horizon.BuildCount(), StatsPassCount()
	warm := cachedEvaluator(t, dir, nil)
	if warm.HorizonFromCache() {
		t.Error("corrupt horizon artifact must not be trusted")
	}
	csWarm, err := warm.StatsPercentile(75)
	if err != nil {
		t.Fatal(err)
	}
	if horizon.BuildCount() == hb {
		t.Error("corrupt cache must force a horizon rebuild")
	}
	if StatsPassCount() == sp {
		t.Error("corrupt cache must force a statistics recompute")
	}
	sameStats(t, "recomputed-after-corruption", csCold, csWarm)
}

// TestCachedStatsServedWithoutKernel: the memoized CachedStats path on
// a warm evaluator serves from disk on first use.
func TestCachedStatsServedWithoutKernel(t *testing.T) {
	dir := t.TempDir()
	cold := cachedEvaluator(t, dir, nil)
	want, err := cold.CachedStats()
	if err != nil {
		t.Fatal(err)
	}
	sp := StatsPassCount()
	warm := cachedEvaluator(t, dir, nil)
	got, err := warm.CachedStats()
	if err != nil {
		t.Fatal(err)
	}
	if StatsPassCount() != sp {
		t.Error("warm CachedStats must not execute the kernel")
	}
	sameStats(t, "cached-stats", want, got)
}

// TestTileHorizonArtifactRoundTrip: the tile-level shared horizon is
// cached as ONE artifact. A cold call ray-marches once (a single
// BuildCount increment for the whole region set) and stores; a warm
// call restores without marching, bit-identically, with the build
// options recovered via the fingerprint; and a roof view sliced from
// the restored map equals a direct per-roof build bit-for-bit.
func TestTileHorizonArtifactRoundTrip(t *testing.T) {
	scene := testScene(t)
	cache, err := fieldcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	roof := scene.RoofRect
	aside := geom.Rect{X0: 0, Y0: 0, X1: roof.X0 + 2, Y1: 6}
	regions := []geom.Rect{roof, aside}
	opts := horizon.Options{Sectors: 16, MaxDistanceM: 6}

	before := horizon.BuildCount()
	cold, hit, err := TileHorizon(scene.Raster, regions, opts, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold TileHorizon reported a cache hit")
	}
	if got := horizon.BuildCount() - before; got != 1 {
		t.Fatalf("cold tile build incremented BuildCount by %d, want 1", got)
	}

	before = horizon.BuildCount()
	warm, hit, err := TileHorizon(scene.Raster, regions, opts, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("warm TileHorizon missed the cache")
	}
	if got := horizon.BuildCount() - before; got != 0 {
		t.Fatalf("warm tile restore ray-marched %d maps, want 0", got)
	}
	if warm.BuildOptions() != opts.Resolved(scene.Raster.CellSize()) {
		t.Errorf("restored tile map lost its build options: %+v", warm.BuildOptions())
	}
	cs, ws := cold.Snapshot(), warm.Snapshot()
	if cs.Region != ws.Region || cs.Sectors != ws.Sectors {
		t.Fatalf("restored tile shape %v/%d, want %v/%d", ws.Region, ws.Sectors, cs.Region, cs.Sectors)
	}
	for i := range cs.Tan {
		if cs.Tan[i] != ws.Tan[i] {
			t.Fatalf("restored tile tan[%d] differs", i)
		}
	}

	view, err := warm.Slice(roof)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := horizon.BuildRegions(scene.Raster, []geom.Rect{roof}, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	vs, ds := view.Snapshot(), direct.Snapshot()
	for i := range ds.Tan {
		if vs.Tan[i] != ds.Tan[i] {
			t.Fatalf("restored slice differs from direct build at tan[%d]", i)
		}
	}
	for i := range ds.SVF {
		if vs.SVF[i] != ds.SVF[i] {
			t.Fatalf("restored slice differs from direct build at svf[%d]", i)
		}
	}
}

// TestTileHorizonFingerprintSensitivity: the tile artifact key covers
// the raster content, the region list and the options — editing a
// single DSM cell, asking for different regions, or changing the
// march parameters must all miss and rebuild.
func TestTileHorizonFingerprintSensitivity(t *testing.T) {
	scene := testScene(t)
	cache, err := fieldcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	regions := []geom.Rect{scene.RoofRect}
	opts := horizon.Options{Sectors: 8, MaxDistanceM: 4}
	if _, hit, err := TileHorizon(scene.Raster, regions, opts, 1, cache); err != nil || hit {
		t.Fatalf("priming build: hit=%v err=%v", hit, err)
	}
	if _, hit, err := TileHorizon(scene.Raster, regions, opts, 1, cache); err != nil || !hit {
		t.Fatalf("unchanged inputs must hit: hit=%v err=%v", hit, err)
	}

	// One-cell edit: the tile entry is invalidated.
	edited := scene.Raster.Clone()
	c := geom.Cell{X: scene.RoofRect.X0, Y: scene.RoofRect.Y0}
	edited.Set(c, edited.At(c)+0.01)
	if _, hit, err := TileHorizon(edited, regions, opts, 1, cache); err != nil || hit {
		t.Fatalf("one-cell DSM edit must miss the tile cache: hit=%v err=%v", hit, err)
	}

	// Different region list.
	grown := []geom.Rect{scene.RoofRect, {X0: 0, Y0: 0, X1: 4, Y1: 4}}
	if _, hit, err := TileHorizon(scene.Raster, grown, opts, 1, cache); err != nil || hit {
		t.Fatalf("changed region list must miss: hit=%v err=%v", hit, err)
	}

	// Different march options.
	if _, hit, err := TileHorizon(scene.Raster, regions, horizon.Options{Sectors: 16, MaxDistanceM: 4}, 1, cache); err != nil || hit {
		t.Fatalf("changed options must miss: hit=%v err=%v", hit, err)
	}
}

// TestSharedHorizonSlicePathInNew: an evaluator handed a covering
// SharedHorizon with matching options slices its roof view instead of
// ray-marching (no BuildCount increment, HorizonFromCache reports
// true) and produces bit-identical statistics; a shared map built with
// different options is ignored and the per-roof build runs as before.
func TestSharedHorizonSlicePathInNew(t *testing.T) {
	plain := testEvaluator(t, nil)
	csPlain, err := plain.StatsPercentile(75)
	if err != nil {
		t.Fatal(err)
	}

	scene := testScene(t)
	tile, err := horizon.BuildRegions(scene.Raster, []geom.Rect{scene.RoofRect}, horizon.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := horizon.BuildCount()
	shared := testEvaluator(t, func(c *Config) { c.SharedHorizon = tile })
	if got := horizon.BuildCount() - before; got != 0 {
		t.Fatalf("shared-horizon evaluator ray-marched %d maps, want 0", got)
	}
	if !shared.HorizonFromCache() {
		t.Error("shared-horizon evaluator must report HorizonFromCache")
	}
	csShared, err := shared.StatsPercentile(75)
	if err != nil {
		t.Fatal(err)
	}
	sameStats(t, "plain-vs-shared", csPlain, csShared)

	// Option mismatch: the shared map must be bypassed, not misused.
	mismatched, err := horizon.BuildRegions(scene.Raster, []geom.Rect{scene.RoofRect},
		horizon.Options{Sectors: 8, MaxDistanceM: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	before = horizon.BuildCount()
	fallback := testEvaluator(t, func(c *Config) { c.SharedHorizon = mismatched })
	if got := horizon.BuildCount() - before; got != 1 {
		t.Fatalf("option-mismatched shared map: %d builds, want 1 (per-roof fallback)", got)
	}
	if fallback.HorizonFromCache() {
		t.Error("fallback evaluator must not report a cached horizon")
	}
	csFallback, err := fallback.StatsPercentile(75)
	if err != nil {
		t.Fatal(err)
	}
	sameStats(t, "plain-vs-fallback", csPlain, csFallback)
}
