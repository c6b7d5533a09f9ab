package pvfloor

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/district"
	"repro/internal/dsm"
	"repro/internal/geom"
	"repro/internal/gis"
	"repro/internal/solar/horizon"
)

// requireCityMatchesDistrict asserts the city acceptance criterion:
// the stitched city result is bit-identical to the monolithic
// district run — same roofs in the same order (each exactly once),
// same planes, same placements, same energies, same ranking.
func requireCityMatchesDistrict(t *testing.T, cr *CityResult, dr *DistrictResult) {
	t.Helper()
	if len(cr.Plans) != len(dr.Plans) {
		t.Fatalf("city extracted %d roofs, monolithic %d", len(cr.Plans), len(dr.Plans))
	}
	seen := map[string]bool{}
	for i := range cr.Plans {
		cp, rp := &cr.Plans[i], &dr.Plans[i]
		key := cp.Roof.Rect.String()
		if seen[key] {
			t.Fatalf("roof rect %v stitched twice", cp.Roof.Rect)
		}
		seen[key] = true
		if cp.Roof.ID != rp.Roof.ID || cp.Roof.Building != rp.Roof.Building || cp.Roof.Segment != rp.Roof.Segment {
			t.Fatalf("plan %d: city roof %d (bldg %d.%d), monolithic %d (bldg %d.%d)", i,
				cp.Roof.ID, cp.Roof.Building, cp.Roof.Segment,
				rp.Roof.ID, rp.Roof.Building, rp.Roof.Segment)
		}
		if cp.Roof.Rect != rp.Roof.Rect || cp.Roof.Cells != rp.Roof.Cells {
			t.Fatalf("roof %d: city rect %v (%d cells), monolithic %v (%d cells)", rp.Roof.ID,
				cp.Roof.Rect, cp.Roof.Cells, rp.Roof.Rect, rp.Roof.Cells)
		}
		for _, f := range []struct {
			name string
			c, d float64
		}{
			{"slope", cp.Roof.Plane.SlopeDeg, rp.Roof.Plane.SlopeDeg},
			{"aspect", cp.Roof.Plane.AspectDeg, rp.Roof.Plane.AspectDeg},
			{"ridge", cp.Roof.Plane.RidgeZ, rp.Roof.Plane.RidgeZ},
			{"rms", cp.Roof.FitRMSM, rp.Roof.FitRMSM},
			{"height", cp.Roof.MeanHeightM, rp.Roof.MeanHeightM},
		} {
			if math.Float64bits(f.c) != math.Float64bits(f.d) {
				t.Fatalf("roof %d: %s %v != monolithic %v (not bit-identical)", rp.Roof.ID, f.name, f.c, f.d)
			}
		}
		if cp.Modules != rp.Modules || cp.Skipped != rp.Skipped {
			t.Fatalf("roof %d: city %d modules (skip %q), monolithic %d (%q)", rp.Roof.ID,
				cp.Modules, cp.Skipped, rp.Modules, rp.Skipped)
		}
		if cp.Planned() != rp.Planned() {
			t.Fatalf("roof %d: city planned=%v, monolithic=%v (city err %v, mono err %v)", rp.Roof.ID,
				cp.Planned(), rp.Planned(), cp.Run.Err, rp.Run.Err)
		}
		if !cp.Planned() {
			continue
		}
		c, d := cp.Run.Result, rp.Run.Result
		for _, f := range []struct {
			name string
			c, d float64
		}{
			{"proposed", c.ProposedEval.NetMWh(), d.ProposedEval.NetMWh()},
			{"traditional", c.TraditionalEval.NetMWh(), d.TraditionalEval.NetMWh()},
			{"wiring", c.ProposedEval.WiringExtraM, d.ProposedEval.WiringExtraM},
		} {
			if math.Float64bits(f.c) != math.Float64bits(f.d) {
				t.Fatalf("roof %d: %s %v != monolithic %v (not bit-identical)", rp.Roof.ID, f.name, f.c, f.d)
			}
		}
		if fmt.Sprint(c.Proposed.Anchors()) != fmt.Sprint(d.Proposed.Anchors()) {
			t.Fatalf("roof %d: placements differ:\ncity: %v\nmono: %v", rp.Roof.ID,
				c.Proposed.Anchors(), d.Proposed.Anchors())
		}
	}
	if fmt.Sprint(cr.Ranked) != fmt.Sprint(dr.Ranked) {
		t.Fatalf("ranking differs: city %v, monolithic %v", cr.Ranked, dr.Ranked)
	}
	for _, f := range []struct {
		name string
		c, d float64
	}{
		{"total proposed", cr.TotalProposedMWh, dr.TotalProposedMWh},
		{"total traditional", cr.TotalTraditionalMWh, dr.TotalTraditionalMWh},
		{"total wiring", cr.TotalWiringExtraM, dr.TotalWiringExtraM},
	} {
		if math.Float64bits(f.c) != math.Float64bits(f.d) {
			t.Fatalf("%s %v != monolithic %v", f.name, f.c, f.d)
		}
	}
}

// TestRunCityEquivalence is the city acceptance criterion: a tiled
// RunCity over the committed neighborhood fixture produces the same
// ranked fleet, bit for bit, as one monolithic RunDistrict — each roof
// extracted exactly once. The 2×2 case isolates the seam-ownership and
// stitching machinery: the default halo (the fast horizon's 40 m reach
// = 200 cells) exceeds the 160×120 fixture, so every window clips to
// the whole tile. The one-tile case (TileCells 0 = the 512 default)
// pins that the rank/totals pass shared by both entry points serves a
// city that is a single district bit-identically.
func TestRunCityEquivalence(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	mono, err := RunDistrict(DistrictConfig{Tile: tile})
	if err != nil {
		t.Fatal(err)
	}
	if len(mono.Plans) != 4 {
		t.Fatalf("monolithic run extracted %d roofs, want 4", len(mono.Plans))
	}

	for _, tc := range []struct {
		name      string
		tileCells int
		wantTiles int
	}{
		{"2x2", 80, 4},
		{"one-tile", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				city, err := RunCity(CityConfig{
					Source:      &gis.RasterSource{Raster: tile},
					TileCells:   tc.tileCells,
					TileWorkers: workers,
				})
				if err != nil {
					t.Fatalf("tile workers %d: %v", workers, err)
				}
				if len(city.Tiles) != tc.wantTiles {
					t.Fatalf("tile workers %d: swept %d tiles, want %d", workers, len(city.Tiles), tc.wantTiles)
				}
				if city.HaloCells != 200 {
					t.Fatalf("tile workers %d: default halo %d cells, want the fast 40 m reach (200)",
						workers, city.HaloCells)
				}
				requireCityMatchesDistrict(t, city, mono)
				// Exactly-once also across tiles: owned-roof counts must
				// sum to the monolithic fleet.
				owned := 0
				for _, ti := range city.Tiles {
					owned += ti.Roofs
				}
				if owned != len(mono.Plans) {
					t.Fatalf("tile workers %d: tiles own %d roofs total, want %d", workers, owned, len(mono.Plans))
				}
			}
		})
	}
}

// TestRunCitySubWindowEquivalence is the stronger variant: a city
// four neighborhoods wide (640×120) where the work-tile windows are
// genuine sub-rectangles at non-zero origins. This exercises the
// origin-aware raster metrics (horizon marching over a shifted
// window), per-window ground estimation, seam-aware border handling
// and centroid ownership all at once — and still demands bit-identical
// results against the monolithic run.
func TestRunCitySubWindowEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("plans a 16-roof strip twice")
	}
	pattern := district.SyntheticNeighborhood()
	strip, err := dsm.NewRaster(4*pattern.W(), pattern.H(), pattern.CellSize())
	if err != nil {
		t.Fatal(err)
	}
	for copyIdx := 0; copyIdx < 4; copyIdx++ {
		for y := 0; y < pattern.H(); y++ {
			for x := 0; x < pattern.W(); x++ {
				strip.Set(geom.Cell{X: copyIdx*pattern.W() + x, Y: y}, pattern.At(geom.Cell{X: x, Y: y}))
			}
		}
	}

	mono, err := RunDistrict(DistrictConfig{Tile: strip})
	if err != nil {
		t.Fatal(err)
	}
	if len(mono.Plans) != 16 {
		t.Fatalf("monolithic strip extracted %d roofs, want 16", len(mono.Plans))
	}

	// Halo 220 = the 200-cell shadow reach plus slack for roof cells
	// that overhang their owning core. 160 + 2×220 < 640, so the
	// interior tiles see true sub-windows with shifted origins.
	city, err := RunCity(CityConfig{
		Source:      &gis.RasterSource{Raster: strip},
		TileCells:   160,
		HaloCells:   220,
		TileWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	subWindows := 0
	for _, ti := range city.Tiles {
		if ti.Window != strip.Bounds() {
			subWindows++
		}
	}
	if subWindows == 0 {
		t.Fatal("no tile saw a proper sub-window; the test has lost its point")
	}
	requireCityMatchesDistrict(t, city, mono)
}

// TestRunCityWarmCache pins the out-of-core pipeline to the artifact
// cache: a second city run over the same DSM and partitioning
// restores every per-window tilehorizon artifact (window content
// hashes include the origin, so tiles cannot collide) and ray-marches
// nothing.
func TestRunCityWarmCache(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	cfg := CityConfig{
		Source:    &gis.RasterSource{Raster: tile},
		TileCells: 80,
		Cache:     openTestCache(t),
	}
	cold, err := RunCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := horizon.BuildCount()
	warm, err := RunCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := horizon.BuildCount() - before; d != 0 {
		t.Errorf("warm city run ray-marched %d horizon maps, want 0", d)
	}
	requireCityMatchesDistrict(t, warm, &DistrictResult{Plans: plansOf(cold), FleetSummary: cold.FleetSummary})
}

func plansOf(cr *CityResult) []RoofPlan {
	out := make([]RoofPlan, len(cr.Plans))
	for i, cp := range cr.Plans {
		out[i] = cp.RoofPlan
	}
	return out
}

// TestRunCityEventsAndTable exercises the progress stream and the
// text report: every tile opens and closes, roof events arrive in
// city coordinates, and the table mentions the tile sweep.
func TestRunCityEventsAndTable(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	var mu sync.Mutex
	var events []CityEvent
	city, err := RunCity(CityConfig{
		Source:    &gis.RasterSource{Raster: tile},
		TileCells: 80,
		Progress: func(ev CityEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	started, finished, extracted, planned := 0, 0, 0, 0
	for _, ev := range events {
		if ev.Tile < 0 || ev.Tile >= ev.Tiles || ev.Tiles != 4 {
			t.Fatalf("event tile %d/%d out of range", ev.Tile, ev.Tiles)
		}
		switch ev.Kind {
		case CityTileStarted:
			started++
		case CityTileFinished:
			finished++
		case DistrictRoofExtracted:
			extracted++
			if ev.Roof.Rect.Intersect(tile.Bounds()) != ev.Roof.Rect {
				t.Errorf("roof event rect %v outside city bounds (not translated?)", ev.Roof.Rect)
			}
		case DistrictRoofPlanned:
			planned++
		}
	}
	if started != 4 || finished != 4 {
		t.Errorf("tile lifecycle events %d started / %d finished, want 4/4", started, finished)
	}
	// Owned roofs fire one extracted + one planned each; unowned
	// components never surface as events.
	if extracted != len(city.Plans) || planned != len(city.Plans) {
		t.Errorf("roof events %d extracted / %d planned, want %d each", extracted, planned, len(city.Plans))
	}

	out := CityTable(city)
	for _, want := range []string{"Rank", "District totals", "tiles swept", "roofs owned"} {
		if !strings.Contains(out, want) {
			t.Errorf("city table missing %q:\n%s", want, out)
		}
	}
}

// TestRunCitySkipsDeadTiles pins the all-NODATA shortcut: tiles whose
// window holds no data never reach extraction.
func TestRunCitySkipsDeadTiles(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	// Kill the right half of the grid.
	nodata := geom.NewMask(tile.W(), tile.H())
	nodata.SetRect(geom.Rect{X0: 80, Y0: 0, X1: tile.W(), Y1: tile.H()}, true)
	dead := tile.Clone()
	dead.SetRectTo(geom.Rect{X0: 80, Y0: 0, X1: tile.W(), Y1: tile.H()}, 0)

	city, err := RunCity(CityConfig{
		Source:    &gis.RasterSource{Raster: dead, NoData: nodata},
		TileCells: 80,
		HaloCells: -1, // no halo: the dead tiles' windows are entirely NODATA
	})
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, ti := range city.Tiles {
		if ti.Skipped != "" {
			skipped++
			if ti.Core.X0 < 80 {
				t.Errorf("live tile %v skipped: %s", ti.Core, ti.Skipped)
			}
		}
	}
	if skipped != 2 {
		t.Fatalf("skipped %d tiles, want the 2 dead ones (tiles: %+v)", skipped, city.Tiles)
	}
}

// TestRunCityValidation covers the fail-fast surface.
func TestRunCityValidation(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	src := &gis.RasterSource{Raster: tile}
	if _, err := RunCity(CityConfig{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := RunCity(CityConfig{Source: src, FleetOptions: FleetOptions{Modules: 12}}); err == nil {
		t.Error("Modules=12 accepted (must be a multiple of 8)")
	}
	if _, err := RunCity(CityConfig{Source: src, FleetOptions: FleetOptions{MaxModules: 4}}); err == nil {
		t.Error("MaxModules below one string accepted")
	}
	if _, err := RunCity(CityConfig{
		Source:       src,
		FleetOptions: FleetOptions{Extract: district.Options{Keep: func(geom.Rect, []geom.Cell) bool { return true }}},
	}); err == nil {
		t.Error("caller-supplied Extract.Keep accepted (city owns seam dedup)")
	}
}
