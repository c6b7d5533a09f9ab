// Package scenario reconstructs the experimental setups of the paper:
// the three industrial lean-to roofs in Turin (§V-A, Table I, Fig. 6)
// plus a residential example matching the paper's title motivation.
//
// The original LiDAR DSMs are proprietary, so each roof is rebuilt
// synthetically to the published characteristics: grid dimensions
// (287×51, 298×51, 298×52 cells at s = 0.2 m), valid-cell counts
// (≈9,416 / 11,892 / 11,672 — Roof 1 dominated by pipe runs),
// orientation (S/S-W, 26° inclination) and the qualitative irradiance
// texture of Fig. 6(b): least-irradiated cells on the right-hand
// side (adjacent structures to the east), non-uniform shading from
// pipes, chimneys, dormers and HVAC cabinets. The substitution is
// documented in DESIGN.md.
package scenario

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dsm"
	"repro/internal/fieldcache"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/panel"
	"repro/internal/solar/clearsky"
	"repro/internal/solar/field"
	"repro/internal/solar/horizon"
	"repro/internal/solar/sunpos"
	"repro/internal/timegrid"
	"repro/internal/weather"
)

// CellSizeM is the paper's virtual grid pitch s.
const CellSizeM = 0.2

// Turin is the paper's site.
var Turin = sunpos.Site{LatDeg: 45.07, LonDeg: 7.69, AltitudeM: 240}

// CETZone is the fixed civil time zone of the simulations.
var CETZone = time.FixedZone("CET", 3600)

// Scenario bundles everything needed to run the paper's pipeline on
// one roof.
type Scenario struct {
	// Name labels the scenario in reports ("Roof 1"...).
	Name string
	// Description summarises the roof for documentation.
	Description string
	// Site is the geographic location.
	Site sunpos.Site
	// Scene is the synthetic DSM.
	Scene *dsm.Scene
	// Suitable is the roof-local valid-cell mask (the paper's Ng
	// valid grid elements).
	Suitable *geom.Mask
	// MonthlyTL is the Linke turbidity climatology.
	MonthlyTL [12]float64
	// Climate parameterises the synthetic weather.
	Climate weather.Climate
	// Seed fixes the weather realisation.
	Seed int64
	// Shape is the module footprint in cells (8×4).
	Shape floorplan.ModuleShape
	// PaperNg is the paper's valid-cell count for calibration tests
	// (0 when the scenario is not from Table I).
	PaperNg int
	// SharedHorizon, when non-nil, is a prebuilt horizon map covering
	// at least the scene's roof region — typically the tile-level map a
	// district run builds once and shares across every roof scenario.
	// FieldWith hands it to the field engine, which slices the roof's
	// view out of it instead of ray-marching (bit-identically) when the
	// map's recorded build options match; otherwise the per-roof build
	// runs as before.
	SharedHorizon *horizon.Map
}

// Ng returns the scenario's valid grid element count.
func (s *Scenario) Ng() int { return s.Suitable.Count() }

// Topology returns the paper's interconnection for n modules: series
// strings of 8 (§V-B "panels are always organized with series of 8").
func Topology(n int) (panel.Topology, error) {
	const m = 8
	if n <= 0 || n%m != 0 {
		return panel.Topology{}, fmt.Errorf("scenario: module count %d not a multiple of %d", n, m)
	}
	return panel.Topology{SeriesPerString: m, Strings: n / m}, nil
}

// FullYearGrid returns the paper's calendar: 2017 at 15-minute steps.
func FullYearGrid() *timegrid.Grid { return timegrid.Year(2017, CETZone) }

// FastGrid returns a reduced calendar for tests and quick runs: one
// simulated day per month-ish stride at hourly resolution, scaled
// back to the full year by the evaluators.
func FastGrid() *timegrid.Grid {
	g, err := timegrid.New(time.Date(2017, 1, 1, 0, 0, 0, 0, CETZone), time.Hour, 365, 30)
	if err != nil {
		panic("scenario: FastGrid construction cannot fail: " + err.Error())
	}
	return g
}

// FastHorizonOptions returns the reduced-fidelity horizon options
// selected by FieldConfig.Fast (32 sectors, 40 m rays). District runs
// that prebuild a tile-level horizon use this to march the tile with
// exactly the options the per-roof evaluators will ask for, so the
// shared map's provenance check passes.
func FastHorizonOptions() horizon.Options {
	return horizon.Options{Sectors: 32, MaxDistanceM: 40}
}

// FieldConfig tunes solar-field construction for a scenario beyond
// the calendar choice.
type FieldConfig struct {
	// Grid is the simulation calendar (required).
	Grid *timegrid.Grid
	// Fast selects reduced horizon fidelity (32 sectors, 40 m rays)
	// — a few times faster to construct, for tests and interactive
	// runs. The default is the paper's full-fidelity horizon.
	Fast bool
	// Workers bounds the field engine's concurrency during
	// construction and statistics: 0 = one worker per CPU, 1 = the
	// serial reference path. Results are identical for every value.
	Workers int
	// Cache, when non-nil, enables the persistent field-artifact
	// cache: horizon maps and per-cell statistics are fingerprinted
	// and reused across runs and processes. Cached results are
	// bit-identical to cold computation. Passing one handle to many
	// runs shares its metrics counters (and any remote blob tier).
	Cache *fieldcache.Cache
}

// FieldWith builds the scenario's solar-field evaluator according to
// cfg.
func (s *Scenario) FieldWith(cfg FieldConfig) (*field.Evaluator, error) {
	wx, err := weather.NewSynthetic(s.Seed, s.Climate)
	if err != nil {
		return nil, err
	}
	var hopts horizon.Options
	if cfg.Fast {
		hopts = FastHorizonOptions()
	}
	return field.New(field.Config{
		Site:          s.Site,
		Scene:         s.Scene,
		Suitable:      s.Suitable,
		Weather:       wx,
		Grid:          cfg.Grid,
		MonthlyTL:     s.MonthlyTL,
		Horizon:       hopts,
		Workers:       cfg.Workers,
		Cache:         cfg.Cache,
		SharedHorizon: s.SharedHorizon,
	})
}

// newIndustrial builds the common frame of the three paper roofs: a
// roofW×roofH lean-to at 26° facing 205° (S/S-W) with an adjacent
// taller structure along the east side (the Fig. 6(b) right-hand-side
// darkening) and a margin for the shadow model.
func newIndustrial(name string, roofW, roofH int, aspectDeg float64, seed int64, paperNg int) (*dsm.SceneBuilder, *Scenario, error) {
	const margin = 40 // 8 m of surroundings
	plane := dsm.Plane{RidgeZ: 8, SlopeDeg: 26, AspectDeg: aspectDeg}
	b, err := dsm.NewSceneBuilder(roofW, roofH, CellSizeM, plane, margin)
	if err != nil {
		return nil, nil, err
	}
	scene := b.Build()
	// Adjacent taller building 2 m east of the roof edge.
	east := geom.Rect{
		X0: scene.RoofRect.X1 + 14, Y0: 0,
		X1: scene.RoofRect.X1 + 36, Y1: scene.Raster.H(),
	}
	if err := b.AddAdjacentStructure(east, 11); err != nil {
		return nil, nil, err
	}
	sc := &Scenario{
		Name:      name,
		Site:      Turin,
		Scene:     scene,
		MonthlyTL: clearsky.TurinMonthlyTL,
		Climate:   weather.Turin,
		Seed:      seed,
		Shape:     floorplan.ModuleShape{W: 8, H: 4},
		PaperNg:   paperNg,
	}
	return b, sc, nil
}

// Roof1 rebuilds the paper's Roof 1: 287×51 cells, Ng ≈ 9,416, the
// suitable area slashed by three long pipe runs ("pipes occupy a
// large space", §V-A) plus chimneys, an HVAC cabinet, skylights and
// vents.
func Roof1() (*Scenario, error) {
	b, sc, err := newIndustrial("Roof 1", 287, 51, 205, 101, 9416)
	if err != nil {
		return nil, err
	}
	sc.Description = "49m-class lean-to, S/SW 26°; dominated by three pipe runs"
	// Three pipe runs across the width (rows 6, 22, 36; 6 cells wide;
	// the top run sits close to the ridge so its shadow band clips
	// the otherwise-clean ridge strip).
	b.AddPipeRun(6, 5, 275, 6, 0.8)
	b.AddPipeRun(22, 10, 280, 6, 0.7)
	b.AddPipeRun(36, 0, 270, 6, 0.9)
	// Chimneys, HVAC, skylights, vents in the free bands.
	b.AddChimney(geom.Cell{X: 120, Y: 44}, 5, 2.0)
	b.AddChimney(geom.Cell{X: 200, Y: 2}, 5, 1.8)
	b.AddObstacle(geom.RectAt(geom.Cell{X: 30, Y: 44}, 12, 6), 1.3)  // HVAC
	b.AddObstacle(geom.RectAt(geom.Cell{X: 60, Y: 14}, 11, 7), 0.5)  // skylight
	b.AddObstacle(geom.RectAt(geom.Cell{X: 160, Y: 14}, 11, 7), 0.5) // skylight
	// Antenna poles: tiny footprints, long rotating shadows — the
	// fine-grained texture of Fig. 6(b). Spacing keeps every clean
	// run shorter than a 16-module compact block in any shape, as on
	// the paper's obstacle-crowded roofs.
	for _, p := range []geom.Cell{
		{X: 30, Y: 2}, {X: 90, Y: 2}, {X: 140, Y: 2}, {X: 264, Y: 2},
		{X: 50, Y: 16}, {X: 110, Y: 16}, {X: 170, Y: 16}, {X: 230, Y: 16},
		{X: 40, Y: 31}, {X: 100, Y: 31}, {X: 160, Y: 31}, {X: 195, Y: 31}, {X: 230, Y: 31},
		{X: 80, Y: 44}, {X: 160, Y: 44}, {X: 250, Y: 44}, {X: 200, Y: 46},
	} {
		b.AddObstacle(geom.RectAt(p, 2, 2), 3.0)
	}
	// Parapet wall along the eave (south edge, outside the roof).
	parapet := geom.Rect{
		X0: sc.Scene.RoofRect.X0, Y0: sc.Scene.RoofRect.Y1 + 1,
		X1: sc.Scene.RoofRect.X1, Y1: sc.Scene.RoofRect.Y1 + 3,
	}
	if err := b.AddAdjacentStructure(parapet, 3.9); err != nil {
		return nil, err
	}
	if err := calibrate(b, sc); err != nil {
		return nil, err
	}
	return sc, nil
}

// Roof2 rebuilds the paper's Roof 2: 298×51 cells, Ng ≈ 11,892, a
// more open roof with one pipe run, two HVAC cabinets, four skylights
// and dormers.
func Roof2() (*Scenario, error) {
	b, sc, err := newIndustrial("Roof 2", 298, 51, 205, 202, 11892)
	if err != nil {
		return nil, err
	}
	sc.Description = "49m-class lean-to, S/SW 26°; open with scattered plant"
	b.AddPipeRun(10, 4, 294, 4, 0.6)
	b.AddObstacle(geom.RectAt(geom.Cell{X: 40, Y: 30}, 20, 20), 1.4)  // HVAC
	b.AddObstacle(geom.RectAt(geom.Cell{X: 240, Y: 28}, 20, 20), 1.2) // HVAC
	for _, x := range []int{90, 130, 170, 210} {
		b.AddObstacle(geom.RectAt(geom.Cell{X: x, Y: 18}, 12, 16), 0.5) // skylights
	}
	b.AddObstacle(geom.RectAt(geom.Cell{X: 10, Y: 36}, 10, 12), 1.6)  // dormer block
	b.AddObstacle(geom.RectAt(geom.Cell{X: 280, Y: 36}, 10, 12), 1.6) // dormer block
	for _, x := range []int{20, 150, 280} {
		b.AddChimney(geom.Cell{X: x, Y: 2}, 4, 1.7)
	}
	// Poles across the otherwise-clean south strip and north band,
	// plus two raised cable conduits.
	for _, p := range []geom.Cell{
		{X: 30, Y: 44}, {X: 75, Y: 46}, {X: 120, Y: 44}, {X: 165, Y: 46}, {X: 210, Y: 44}, {X: 255, Y: 46},
		{X: 60, Y: 4}, {X: 200, Y: 4}, {X: 235, Y: 4},
		{X: 55, Y: 15}, {X: 115, Y: 15}, {X: 175, Y: 15}, {X: 235, Y: 15},
	} {
		b.AddObstacle(geom.RectAt(p, 2, 2), 2.8)
	}
	b.AddObstacle(geom.Rect{X0: 70, Y0: 34, X1: 120, Y1: 35}, 0.45)  // conduit
	b.AddObstacle(geom.Rect{X0: 100, Y0: 2, X1: 150, Y1: 3}, 0.45)   // conduit
	b.AddObstacle(geom.Rect{X0: 150, Y0: 36, X1: 240, Y1: 37}, 0.45) // conduit
	if err := calibrate(b, sc); err != nil {
		return nil, err
	}
	return sc, nil
}

// Roof3 rebuilds the paper's Roof 3: 298×52 cells, Ng ≈ 11,672, with
// a pipe run along the eave, three HVAC cabinets, skylights and a
// dormer row, plus west-side trees.
func Roof3() (*Scenario, error) {
	b, sc, err := newIndustrial("Roof 3", 298, 52, 205, 303, 11672)
	if err != nil {
		return nil, err
	}
	sc.Description = "49m-class lean-to, S/SW 26°; dormer row and heavy plant"
	b.AddPipeRun(42, 20, 270, 5, 0.7)
	for _, x := range []int{30, 140, 250} {
		b.AddObstacle(geom.RectAt(geom.Cell{X: x, Y: 8}, 18, 18), 1.3) // HVAC
	}
	for _, x := range []int{60, 110, 180, 230} {
		b.AddObstacle(geom.RectAt(geom.Cell{X: x, Y: 30}, 16, 10), 0.5) // skylights
	}
	for _, x := range []int{10, 90, 200} {
		b.AddObstacle(geom.RectAt(geom.Cell{X: x, Y: 8}, 12, 20), 1.8) // dormers
	}
	for _, p := range []geom.Cell{
		{X: 20, Y: 2}, {X: 125, Y: 2}, {X: 220, Y: 2},
		{X: 65, Y: 4}, {X: 178, Y: 4}, {X: 285, Y: 14},
		{X: 70, Y: 28}, {X: 155, Y: 28}, {X: 275, Y: 28},
		{X: 50, Y: 48}, {X: 120, Y: 48}, {X: 185, Y: 48}, {X: 250, Y: 48},
	} {
		b.AddObstacle(geom.RectAt(p, 2, 2), 3.2)
	}
	b.AddObstacle(geom.Rect{X0: 30, Y0: 40, X1: 80, Y1: 41}, 0.45) // conduit
	b.AddObstacle(geom.Rect{X0: 240, Y0: 5, X1: 290, Y1: 6}, 0.45) // conduit
	// Trees along the west margin.
	for _, y := range []int{20, 60, 100} {
		if err := b.AddTree(geom.Cell{X: 15, Y: y}, 1.6, 9.5); err != nil {
			return nil, err
		}
	}
	if err := calibrate(b, sc); err != nil {
		return nil, err
	}
	return sc, nil
}

// Residential builds the title scenario: a 10×6 m gabled-house roof
// pitch (50×30 cells) facing south at 30°, with a chimney, a dormer
// and garden trees — sized for a typical 12-module home array.
func Residential() (*Scenario, error) {
	plane := dsm.Plane{RidgeZ: 7, SlopeDeg: 30, AspectDeg: 180}
	b, err := dsm.NewSceneBuilder(50, 30, CellSizeM, plane, 30)
	if err != nil {
		return nil, err
	}
	b.AddChimney(geom.Cell{X: 8, Y: 4}, 3, 1.2)
	b.AddDormer(geom.Cell{X: 28, Y: 10}, 10, 8, 1.8)
	// Typical home-roof furniture: TV antennas, plumbing vent, an
	// existing solar-thermal collector — together they deny any
	// clean rectangular region to a compact array, which is exactly
	// the situation the paper's sparse placement targets.
	b.AddObstacle(geom.RectAt(geom.Cell{X: 24, Y: 18}, 2, 2), 2.5) // antenna
	b.AddObstacle(geom.RectAt(geom.Cell{X: 30, Y: 24}, 2, 2), 2.0) // antenna
	b.AddObstacle(geom.RectAt(geom.Cell{X: 40, Y: 6}, 2, 2), 0.8)  // vent
	b.AddObstacle(geom.RectAt(geom.Cell{X: 6, Y: 20}, 8, 6), 0.3)  // thermal collector
	scene := b.Build()
	// Garden trees south-west of the house.
	if err := b.AddTree(geom.Cell{X: 12, Y: 70}, 1.8, 8.5); err != nil {
		return nil, err
	}
	if err := b.AddTree(geom.Cell{X: 95, Y: 65}, 1.5, 7.5); err != nil {
		return nil, err
	}
	sc := &Scenario{
		Name:        "Residential",
		Description: "10x6 m gabled-house pitch, S 30°, chimney + dormer + garden trees",
		Site:        Turin,
		Scene:       scene,
		MonthlyTL:   clearsky.TurinMonthlyTL,
		Climate:     weather.Turin,
		Seed:        404,
		Shape:       floorplan.ModuleShape{W: 8, H: 4},
	}
	sc.Suitable = scene.SuitableArea(0)
	return sc, nil
}

// All returns the three Table I roofs in order.
func All() ([]*Scenario, error) {
	r1, err := Roof1()
	if err != nil {
		return nil, err
	}
	r2, err := Roof2()
	if err != nil {
		return nil, err
	}
	r3, err := Roof3()
	if err != nil {
		return nil, err
	}
	return []*Scenario{r1, r2, r3}, nil
}

// Pick resolves a scenario spec as the command-line tools spell it: a
// comma-separated list of "1", "2", "3" and "residential" (or "res"),
// blank entries ignored, each scenario kept once in first-mention
// order. "all" expands to the names given in all — each tool decides
// what it covers — and is an unknown name when all is empty.
func Pick(spec string, all ...string) ([]*Scenario, error) {
	var names []string
	for _, tok := range strings.Split(spec, ",") {
		switch tok = strings.TrimSpace(tok); {
		case tok == "":
		case tok == "all" && len(all) > 0:
			names = append(names, all...)
		default:
			names = append(names, tok)
		}
	}
	builders := map[string]func() (*Scenario, error){
		"1": Roof1, "2": Roof2, "3": Roof3, "residential": Residential, "res": Residential,
	}
	want := "1, 2, 3 or residential"
	if len(all) > 0 {
		want = "all, " + want
	}
	var out []*Scenario
	seen := map[string]bool{}
	for _, name := range names {
		build, ok := builders[name]
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (want %s)", name, want)
		}
		sc, err := build()
		if err != nil {
			return nil, err
		}
		if !seen[sc.Name] {
			seen[sc.Name] = true
			out = append(out, sc)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenarios selected")
	}
	return out, nil
}

// calibrate pins the scenario's valid-cell count to the paper's
// exact Ng by stamping a low ballast tray (0.25 m cable tray cells)
// into the least valuable corner of the roof (south-east: eave side
// under the parapet shadow plus the darkened east edge). The bulk of
// the obstacle inventory is scenic; ballast absorbs only the small
// integer remainder, keeping Table I's Ng column exact.
func calibrate(b *dsm.SceneBuilder, sc *Scenario) error {
	suit := sc.Scene.SuitableArea(0)
	excess := suit.Count() - sc.PaperNg
	if excess < 0 {
		return fmt.Errorf("scenario %s: obstacle inventory overshoots: Ng %d below paper %d",
			sc.Name, suit.Count(), sc.PaperNg)
	}
	for y := suit.H() - 1; y >= 0 && excess > 0; y-- {
		for x := suit.W() - 1; x >= 0 && excess > 0; x-- {
			c := geom.Cell{X: x, Y: y}
			if !suit.Get(c) {
				continue
			}
			b.AddObstacle(geom.RectAt(c, 1, 1), 0.25)
			suit.Set(c, false)
			excess--
		}
	}
	sc.Suitable = sc.Scene.SuitableArea(0)
	if got := sc.Suitable.Count(); got != sc.PaperNg {
		return fmt.Errorf("scenario %s: calibration failed: Ng %d != %d", sc.Name, got, sc.PaperNg)
	}
	return nil
}
