package pvfloor

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/district"
	"repro/internal/dsm"
	"repro/internal/fieldcache"
	"repro/internal/gis"
	"repro/internal/solar/horizon"
)

// loadNeighborhoodTile reads the committed district fixture through
// the real interchange path (the same bytes cmd/pvdistrict would
// parse).
func loadNeighborhoodTile(t *testing.T) *dsm.Raster {
	t.Helper()
	return loadTileFixture(t, "testdata/district/neighborhood.asc")
}

// loadGabledTile reads the committed gabled-block fixture.
func loadGabledTile(t *testing.T) *dsm.Raster {
	t.Helper()
	return loadTileFixture(t, "testdata/district/gabled.asc")
}

func loadTileFixture(t *testing.T, path string) *dsm.Raster {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tile, nodata, err := gis.LoadRaster(f)
	if err != nil {
		t.Fatal(err)
	}
	if nodata != nil {
		t.Fatalf("fixture %s has %d NODATA cells, want 0", path, nodata.Count())
	}
	return tile
}

// TestNeighborhoodFixtureInSync pins the committed .asc fixture to the
// generator: if SyntheticNeighborhood changes, the fixture (and the
// golden corpus derived from it) must be regenerated via
//
//	go run ./cmd/roofgen -district -out testdata/district
//	go test . -run Golden -update
func TestNeighborhoodFixtureInSync(t *testing.T) {
	committed := loadNeighborhoodTile(t)
	generated := district.SyntheticNeighborhood()
	if committed.ContentHash() != generated.ContentHash() {
		t.Fatal("testdata/district/neighborhood.asc is out of sync with district.SyntheticNeighborhood();\n" +
			"regenerate: go run ./cmd/roofgen -district -out testdata/district && go test . -run Golden -update")
	}
}

// TestGabledFixtureInSync pins the gabled fixture to its generator the
// same way.
func TestGabledFixtureInSync(t *testing.T) {
	committed := loadGabledTile(t)
	generated := district.SyntheticGabledBlock()
	if committed.ContentHash() != generated.ContentHash() {
		t.Fatal("testdata/district/gabled.asc is out of sync with district.SyntheticGabledBlock();\n" +
			"regenerate: go run ./cmd/roofgen -district -out testdata/district && go test . -run Golden -update")
	}
}

// districtFingerprint reduces a district result to an exact string:
// every placement anchor and every energy figure down to the float
// bit pattern. Two runs agree iff their fingerprints match.
func districtFingerprint(res *DistrictResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ground=%x roofs=%d ranked=%v\n",
		math.Float64bits(res.Extraction.GroundZ), len(res.Plans), res.Ranked)
	for i := range res.Plans {
		rp := &res.Plans[i]
		fmt.Fprintf(&sb, "roof%d bldg=%d.%d rect=%v cells=%d slope=%x aspect=%x n=%d skipped=%q err=%v",
			rp.Roof.ID, rp.Roof.Building, rp.Roof.Segment, rp.Roof.Rect, rp.Roof.Cells,
			math.Float64bits(rp.Roof.Plane.SlopeDeg), math.Float64bits(rp.Roof.Plane.AspectDeg),
			rp.Modules, rp.Skipped, rp.Run.Err != nil)
		if rp.Planned() {
			r := rp.Run.Result
			fmt.Fprintf(&sb, " prop=%x trad=%x wire=%x anchors=%v trad-anchors=%v",
				math.Float64bits(r.ProposedEval.NetMWh()),
				math.Float64bits(r.TraditionalEval.NetMWh()),
				math.Float64bits(r.ProposedEval.WiringExtraM),
				r.Proposed.Anchors(), r.Traditional.Anchors())
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "totals prop=%x trad=%x wire=%x\n",
		math.Float64bits(res.TotalProposedMWh), math.Float64bits(res.TotalTraditionalMWh),
		math.Float64bits(res.TotalWiringExtraM))
	return sb.String()
}

// TestRunDistrictDeterministicAcrossWorkers is the district
// acceptance gate: the committed tile yields at least 3 roofs, every
// roof plans, and the entire ranked result — placements, energies,
// ranking — is bit-identical for every concurrency setting.
func TestRunDistrictDeterministicAcrossWorkers(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	var ref string
	for _, w := range []int{1, 2, 8} {
		res, err := RunDistrict(DistrictConfig{
			Tile:         tile,
			FleetOptions: FleetOptions{Concurrency: w, FieldWorkers: w},
		})
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if len(res.Extraction.Roofs) < 3 {
			t.Fatalf("workers %d: extracted %d roofs, want >= 3", w, len(res.Extraction.Roofs))
		}
		if len(res.Ranked) != len(res.Plans) {
			for i := range res.Plans {
				rp := &res.Plans[i]
				if !rp.Planned() {
					t.Logf("roof%d unplanned: skipped=%q err=%v", rp.Roof.ID, rp.Skipped, rp.Run.Err)
				}
			}
			t.Fatalf("workers %d: only %d of %d roofs planned", w, len(res.Ranked), len(res.Plans))
		}
		fp := districtFingerprint(res)
		if ref == "" {
			ref = fp
		} else if fp != ref {
			t.Fatalf("workers %d: district result differs from workers 1:\n--- w1 ---\n%s--- w%d ---\n%s",
				w, ref, w, fp)
		}
	}
}

// TestRunDistrictShrinksOverSizedRequest pins the no-space retry
// loop: forcing 24 modules on every roof must shrink the garage
// (which cannot hold 24) down in steps of 8 until it fits, not fail
// the roof.
func TestRunDistrictShrinksOverSizedRequest(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	res, err := RunDistrict(DistrictConfig{Tile: tile, FleetOptions: FleetOptions{Modules: 24}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) != 4 {
		t.Fatalf("extracted %d roofs, want 4", len(res.Plans))
	}
	garage := &res.Plans[3]
	if !garage.Planned() {
		t.Fatalf("garage not planned: skipped=%q err=%v", garage.Skipped, garage.Run.Err)
	}
	if garage.Modules >= 24 {
		t.Fatalf("garage planned %d modules; 24 cannot fit, shrink expected", garage.Modules)
	}
	if got := garage.Run.Result.Proposed.Topology.Modules(); got != garage.Modules {
		t.Fatalf("reported %d modules but placement has %d", garage.Modules, got)
	}
}

func TestRunDistrictEmptyAndInvalid(t *testing.T) {
	if _, err := RunDistrict(DistrictConfig{}); err == nil {
		t.Error("nil tile accepted")
	}
	// A cap below one string can never plan anything; it must be
	// rejected up front rather than silently skipping every roof.
	tile := loadNeighborhoodTile(t)
	if _, err := RunDistrict(DistrictConfig{Tile: tile, FleetOptions: FleetOptions{MaxModules: 4}}); err == nil {
		t.Error("MaxModules below one 8-module string accepted")
	}
	for _, n := range []int{4, 12, -8} {
		if _, err := RunDistrict(DistrictConfig{Tile: tile, FleetOptions: FleetOptions{Modules: n}}); err == nil {
			t.Errorf("Modules=%d accepted (must be a positive multiple of 8)", n)
		}
	}
	flat, err := dsm.NewRaster(40, 40, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDistrict(DistrictConfig{Tile: flat})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) != 0 || len(res.Ranked) != 0 || res.TotalProposedMWh != 0 {
		t.Errorf("flat tile produced plans: %+v", res.Plans)
	}
}

func TestDistrictTableFormat(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	res, err := RunDistrict(DistrictConfig{Tile: tile})
	if err != nil {
		t.Fatal(err)
	}
	out := DistrictTable(res)
	for _, want := range []string{"Rank", "roof01", "District totals", "roofs planned"} {
		if !strings.Contains(out, want) {
			t.Errorf("district table missing %q:\n%s", want, out)
		}
	}
	// Ranking is best-first by proposed net energy.
	for i := 1; i < len(res.Ranked); i++ {
		prev := res.Plans[res.Ranked[i-1]].Run.Result.ProposedEval.NetMWh()
		cur := res.Plans[res.Ranked[i]].Run.Result.ProposedEval.NetMWh()
		if cur > prev {
			t.Errorf("ranking not descending: %g before %g", prev, cur)
		}
	}
}

// TestRunDistrictSharedCacheConcurrentReuse is the shared-dir stress
// gate for the tile-level horizon artifact: one warm-up district run
// populates the cache, then several district runs execute concurrently
// against the same directory. Every run must restore the one tile
// horizon instead of ray-marching (a zero global BuildCount delta
// proves no run rebuilt anything) and produce a result bit-identical
// to the warm-up. Run under -race this also pins the cache's
// concurrent-reader safety.
func TestRunDistrictSharedCacheConcurrentReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four district sweeps")
	}
	tile := loadNeighborhoodTile(t)
	dir := t.TempDir()
	cache, err := fieldcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunDistrict(DistrictConfig{Tile: tile, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	ref := districtFingerprint(warm)

	const runs = 3
	before := horizon.BuildCount()
	fps := make([]string, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// One handle per run, as separate processes would hold.
			cache, err := fieldcache.Open(dir)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := RunDistrict(DistrictConfig{Tile: tile, FleetOptions: FleetOptions{Concurrency: 2}, Cache: cache})
			if err != nil {
				errs[i] = err
				return
			}
			fps[i] = districtFingerprint(res)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	if d := horizon.BuildCount() - before; d != 0 {
		t.Errorf("concurrent warm runs ray-marched %d horizon maps, want 0 (tile artifact reuse)", d)
	}
	for i, fp := range fps {
		if fp != ref {
			t.Errorf("concurrent run %d differs from the warm-up run:\n--- warm ---\n%s--- got ---\n%s",
				i, ref, fp)
		}
	}
}

// openTestCache opens a fresh artifact cache in a test temp dir.
func openTestCache(t testing.TB) *fieldcache.Cache {
	t.Helper()
	cache, err := fieldcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return cache
}
