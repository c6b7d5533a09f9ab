package dsm

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestNewRasterValidation(t *testing.T) {
	cases := []struct {
		w, h int
		cell float64
	}{
		{0, 10, 0.2}, {10, 0, 0.2}, {-1, 10, 0.2}, {10, 10, 0}, {10, 10, -0.5},
		{10, 10, math.NaN()}, {10, 10, math.Inf(1)}, {10, 10, math.Inf(-1)},
	}
	for _, c := range cases {
		if _, err := NewRaster(c.w, c.h, c.cell); err == nil {
			t.Errorf("NewRaster(%d,%d,%g) should fail", c.w, c.h, c.cell)
		}
	}
	r, err := NewRaster(5, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if r.W() != 5 || r.H() != 4 || r.CellSize() != 0.2 {
		t.Error("accessors wrong")
	}
}

func TestRasterAtSetBounds(t *testing.T) {
	r, _ := NewRaster(4, 4, 1)
	r.Set(geom.Cell{X: 2, Y: 3}, 7.5)
	if r.At(geom.Cell{X: 2, Y: 3}) != 7.5 {
		t.Error("Set/At roundtrip")
	}
	if r.At(geom.Cell{X: -1, Y: 0}) != 0 || r.At(geom.Cell{X: 4, Y: 0}) != 0 {
		t.Error("out-of-bounds At must read 0 (ground datum)")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds Set must panic")
		}
	}()
	r.Set(geom.Cell{X: 4, Y: 0}, 1)
}

func TestAtMetresNearestSampling(t *testing.T) {
	r, _ := NewRaster(10, 10, 0.2)
	r.Set(geom.Cell{X: 3, Y: 4}, 2.5)
	// Cell (3,4) spans x in [0.6,0.8), y in [0.8,1.0).
	if got := r.AtMetres(0.7, 0.9); got != 2.5 {
		t.Errorf("AtMetres inside cell = %g", got)
	}
	if got := r.AtMetres(0.59, 0.9); got != 0 {
		t.Errorf("AtMetres left of cell = %g", got)
	}
	if got := r.AtMetres(-5, -5); got != 0 {
		t.Errorf("AtMetres outside raster = %g", got)
	}
	if c := r.CellAtMetres(0.7, 0.9); c != (geom.Cell{X: 3, Y: 4}) {
		t.Errorf("CellAtMetres inside cell = %v", c)
	}
	r.SetOrigin(geom.Cell{X: 2, Y: -1})
	if c := r.CellAtMetres(-5, 0.9); c != (geom.Cell{X: -27, Y: 5}) {
		t.Errorf("CellAtMetres on a window outside the raster = %v", c)
	}
	r.SetOrigin(geom.Cell{})
	xm, ym := r.CellCenterMetres(geom.Cell{X: 3, Y: 4})
	if math.Abs(xm-0.7) > 1e-12 || math.Abs(ym-0.9) > 1e-12 {
		t.Errorf("CellCenterMetres = (%g,%g)", xm, ym)
	}
}

func TestRaiseMaxAboveSetRectTo(t *testing.T) {
	r, _ := NewRaster(6, 6, 1)
	r.SetRectTo(geom.Rect{X0: 0, Y0: 0, X1: 6, Y1: 6}, 3)
	r.Raise(geom.Rect{X0: 1, Y0: 1, X1: 3, Y1: 3}, 2)
	if r.At(geom.Cell{X: 1, Y: 1}) != 5 || r.At(geom.Cell{X: 0, Y: 0}) != 3 {
		t.Error("Raise failed")
	}
	r.MaxAbove(geom.Rect{X0: 0, Y0: 0, X1: 2, Y1: 2}, 4)
	if r.At(geom.Cell{X: 0, Y: 0}) != 4 {
		t.Error("MaxAbove should lift low cells")
	}
	if r.At(geom.Cell{X: 1, Y: 1}) != 5 {
		t.Error("MaxAbove must not lower tall cells")
	}
	// Clipping: raising a rect poking outside must not panic.
	r.Raise(geom.Rect{X0: -5, Y0: -5, X1: 100, Y1: 1}, 1)
}

func TestCloneIndependence(t *testing.T) {
	r, _ := NewRaster(3, 3, 1)
	r.Set(geom.Cell{X: 1, Y: 1}, 9)
	c := r.Clone()
	c.Set(geom.Cell{X: 1, Y: 1}, 0)
	if r.At(geom.Cell{X: 1, Y: 1}) != 9 {
		t.Error("Clone shares storage with original")
	}
}

func TestSlopeAspectOnAnalyticPlanes(t *testing.T) {
	// Build a plane descending toward the south at 26° and check
	// Horn's estimator recovers slope and aspect at interior cells.
	r, _ := NewRaster(20, 20, 0.2)
	tan26 := math.Tan(26 * math.Pi / 180)
	for y := 0; y < 20; y++ {
		for x := 0; x < 20; x++ {
			r.Set(geom.Cell{X: x, Y: y}, 10-tan26*0.2*float64(y))
		}
	}
	slope, aspect := r.SlopeAspect(geom.Cell{X: 10, Y: 10})
	if math.Abs(slope*180/math.Pi-26) > 0.1 {
		t.Errorf("slope = %.2f°, want 26", slope*180/math.Pi)
	}
	if math.Abs(aspect*180/math.Pi-180) > 0.1 {
		t.Errorf("aspect = %.2f°, want 180 (south)", aspect*180/math.Pi)
	}

	// East-descending plane: aspect 90°.
	r2, _ := NewRaster(20, 20, 0.2)
	for y := 0; y < 20; y++ {
		for x := 0; x < 20; x++ {
			r2.Set(geom.Cell{X: x, Y: y}, 10-0.5*0.2*float64(x))
		}
	}
	slope2, aspect2 := r2.SlopeAspect(geom.Cell{X: 10, Y: 10})
	if math.Abs(aspect2*180/math.Pi-90) > 0.1 {
		t.Errorf("aspect = %.2f°, want 90 (east)", aspect2*180/math.Pi)
	}
	if math.Abs(math.Tan(slope2)-0.5) > 0.01 {
		t.Errorf("tan(slope) = %.3f, want 0.5", math.Tan(slope2))
	}

	// Flat raster: zero slope, aspect 0 by convention.
	flat, _ := NewRaster(5, 5, 1)
	s, a := flat.SlopeAspect(geom.Cell{X: 2, Y: 2})
	if s != 0 || a != 0 {
		t.Errorf("flat slope/aspect = %g/%g", s, a)
	}
}

func TestPlaneNormal(t *testing.T) {
	// South-facing 26° plane: normal tilts toward south (negative
	// north component), preserves unit length.
	p := Plane{SlopeDeg: 26, AspectDeg: 180}
	e, n, u := p.Normal()
	if math.Abs(math.Sqrt(e*e+n*n+u*u)-1) > 1e-12 {
		t.Error("normal not unit length")
	}
	if math.Abs(e) > 1e-12 {
		t.Errorf("south-facing normal east component = %g", e)
	}
	if n >= 0 {
		t.Errorf("south-facing normal north component = %g, want < 0", n)
	}
	if math.Abs(u-math.Cos(26*math.Pi/180)) > 1e-12 {
		t.Errorf("up component = %g", u)
	}
}

func buildTestScene(t *testing.T) (*SceneBuilder, *Scene) {
	t.Helper()
	b, err := NewSceneBuilder(60, 30, 0.2, Plane{RidgeZ: 8, SlopeDeg: 26, AspectDeg: 180}, 10)
	if err != nil {
		t.Fatal(err)
	}
	return b, b.Build()
}

func TestSceneBuilderValidation(t *testing.T) {
	plane := Plane{RidgeZ: 8, SlopeDeg: 26, AspectDeg: 180}
	if _, err := NewSceneBuilder(0, 10, 0.2, plane, 5); err == nil {
		t.Error("zero roof width should fail")
	}
	if _, err := NewSceneBuilder(10, 10, 0.2, plane, -1); err == nil {
		t.Error("negative margin should fail")
	}
	if _, err := NewSceneBuilder(10, 10, 0.2, Plane{SlopeDeg: 95}, 0); err == nil {
		t.Error("slope >= 90 should fail")
	}
}

func TestScenePlaneGeometry(t *testing.T) {
	b, sc := buildTestScene(t)
	// Ridge row is highest; eave row lowest; drop matches tan(26°).
	zTop := b.PlaneZ(geom.Cell{X: 5, Y: 0})
	zBot := b.PlaneZ(geom.Cell{X: 5, Y: 29})
	wantDrop := math.Tan(26*math.Pi/180) * 29 * 0.2
	if math.Abs((zTop-zBot)-wantDrop) > 1e-9 {
		t.Errorf("plane drop = %g, want %g", zTop-zBot, wantDrop)
	}
	// Raster matches the analytic plane inside the roof.
	if math.Abs(sc.RoofCellZ(geom.Cell{X: 5, Y: 0})-zTop) > 1e-12 {
		t.Error("raster disagrees with PlaneZ at ridge")
	}
	// Margins stay at ground level.
	if sc.Raster.At(geom.Cell{X: 0, Y: 0}) != 0 {
		t.Error("margin should be ground")
	}
	// The recovered slope/aspect of the stamped plane match.
	slope, aspect := sc.Raster.SlopeAspect(sc.ToRasterCell(geom.Cell{X: 30, Y: 15}))
	if math.Abs(slope*180/math.Pi-26) > 0.5 || math.Abs(aspect*180/math.Pi-180) > 1 {
		t.Errorf("stamped plane slope/aspect = %.1f°/%.1f°", slope*180/math.Pi, aspect*180/math.Pi)
	}
}

func TestObstaclesAndSuitableArea(t *testing.T) {
	b, sc := buildTestScene(t)
	b.AddChimney(geom.Cell{X: 10, Y: 10}, 4, 1.5)
	b.AddPipeRun(20, 0, 60, 2, 0.6)

	// Obstacle cells are raised above the plane.
	chimneyTop := sc.RoofCellZ(geom.Cell{X: 11, Y: 11})
	planeZ := b.PlaneZ(geom.Cell{X: 11, Y: 11})
	if math.Abs(chimneyTop-(planeZ+1.5)) > 1e-9 {
		t.Errorf("chimney top = %g, want plane+1.5 = %g", chimneyTop, planeZ+1.5)
	}

	suit := sc.SuitableArea(0)
	if suit.W() != 60 || suit.H() != 30 {
		t.Fatalf("suitable mask dims %dx%d", suit.W(), suit.H())
	}
	if suit.Get(geom.Cell{X: 11, Y: 11}) {
		t.Error("chimney cell must be unsuitable")
	}
	if suit.Get(geom.Cell{X: 30, Y: 20}) || suit.Get(geom.Cell{X: 30, Y: 21}) {
		t.Error("pipe cells must be unsuitable")
	}
	if !suit.Get(geom.Cell{X: 30, Y: 5}) {
		t.Error("open roof cell must be suitable")
	}
	// Counting: 60*30 minus chimney 16 minus pipe 120.
	want := 60*30 - 16 - 120
	if suit.Count() != want {
		t.Errorf("suitable count = %d, want %d", suit.Count(), want)
	}

	// Margin erosion removes the ring around obstacles and borders.
	suit1 := sc.SuitableArea(1)
	if suit1.Get(geom.Cell{X: 9, Y: 10}) {
		t.Error("cell adjacent to chimney should be eroded at margin 1")
	}
	if suit1.Get(geom.Cell{X: 0, Y: 5}) {
		t.Error("border cell should be eroded at margin 1")
	}
	if suit1.Count() >= suit.Count() {
		t.Error("erosion must shrink the suitable area")
	}
}

func TestAdjacentStructureAndTree(t *testing.T) {
	b, sc := buildTestScene(t)
	// A wall along the raster's east edge, outside the roof.
	wall := geom.Rect{X0: 75, Y0: 0, X1: 78, Y1: 50}
	if err := b.AddAdjacentStructure(wall, 12); err != nil {
		t.Fatal(err)
	}
	if sc.Raster.At(geom.Cell{X: 76, Y: 10}) != 12 {
		t.Error("adjacent structure not stamped")
	}
	// Overlapping the roof is rejected.
	if err := b.AddAdjacentStructure(geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 30}, 5); err == nil {
		t.Error("overlap with roof must be rejected")
	}

	// Tree outside the roof.
	if err := b.AddTree(geom.Cell{X: 5, Y: 45}, 0.8, 9); err != nil {
		t.Fatal(err)
	}
	if sc.Raster.At(geom.Cell{X: 5, Y: 45}) < 8 {
		t.Error("tree trunk cell should be near topZ")
	}
	// Tree over the roof is rejected.
	if err := b.AddTree(geom.Cell{X: 30, Y: 20}, 1, 9); err == nil {
		t.Error("tree over the roof must be rejected")
	}
}

func TestDormerShape(t *testing.T) {
	b, sc := buildTestScene(t)
	b.AddDormer(geom.Cell{X: 40, Y: 8}, 8, 6, 2.0)
	edge := sc.RoofCellZ(geom.Cell{X: 40, Y: 10}) - b.PlaneZ(geom.Cell{X: 40, Y: 10})
	ridge := sc.RoofCellZ(geom.Cell{X: 44, Y: 10}) - b.PlaneZ(geom.Cell{X: 44, Y: 10})
	if !(ridge > edge && edge > 0) {
		t.Errorf("dormer profile: edge=%.2f ridge=%.2f, want 0 < edge < ridge", edge, ridge)
	}
	suit := sc.SuitableArea(0)
	if suit.Get(geom.Cell{X: 44, Y: 10}) {
		t.Error("dormer cells must be unsuitable")
	}
}

func TestObstacleOutsideRoofClips(t *testing.T) {
	b, _ := buildTestScene(t)
	// An obstacle rect partially outside the roof must clip without
	// panicking (roof-local coordinates may exceed the roof).
	b.AddObstacle(geom.Rect{X0: 55, Y0: -3, X1: 70, Y1: 2}, 1)
}
