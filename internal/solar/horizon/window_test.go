package horizon

import (
	"math"
	"testing"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// TestWindowBuildMatchesMonolithic pins the property the city
// pipeline's bit-identical stitching rests on: building a horizon map
// over an origin-aware window raster marches exactly the same floats
// as building it over the full raster, as long as the window covers
// the shadow reach around the region. 0.2 m cells make every metre
// coordinate non-representable, so any local-origin shortcut in the
// marching math breaks this immediately.
func TestWindowBuildMatchesMonolithic(t *testing.T) {
	full, err := dsm.NewRaster(60, 60, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Irregular terrain all over, plus a wall near the region so
	// tangents are non-trivial in most sectors.
	for y := 0; y < 60; y++ {
		for x := 0; x < 60; x++ {
			full.Set(geom.Cell{X: x, Y: y}, 0.1*math.Sin(float64(x)*0.9)*math.Cos(float64(y)*0.7))
		}
	}
	full.SetRectTo(geom.Rect{X0: 42, Y0: 10, X1: 44, Y1: 50}, 4)

	// Reach 2 m = 10 cells; the window pads the region by 12 cells, so
	// every march from a region cell stays inside the window.
	opts := Options{Sectors: 16, MaxDistanceM: 2}
	region := geom.Rect{X0: 20, Y0: 20, X1: 36, Y1: 38}
	window := geom.Rect{X0: 8, Y0: 8, X1: 48, Y1: 50}

	win, err := dsm.NewRaster(window.W(), window.H(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	win.SetOrigin(window.Anchor())
	for y := 0; y < window.H(); y++ {
		for x := 0; x < window.W(); x++ {
			win.Set(geom.Cell{X: x, Y: y}, full.At(geom.Cell{X: window.X0 + x, Y: window.Y0 + y}))
		}
	}

	mono, err := build(full, region, opts)
	if err != nil {
		t.Fatal(err)
	}
	local := geom.Rect{
		X0: region.X0 - window.X0, Y0: region.Y0 - window.Y0,
		X1: region.X1 - window.X0, Y1: region.Y1 - window.Y0,
	}
	windowed, err := build(win, local, opts)
	if err != nil {
		t.Fatal(err)
	}

	ms, ws := mono.Snapshot(), windowed.Snapshot()
	if len(ms.Tan) != len(ws.Tan) || len(ms.SVF) != len(ws.SVF) {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d tangents/svf",
			len(ms.Tan), len(ms.SVF), len(ws.Tan), len(ws.SVF))
	}
	for i := range ms.Tan {
		if ms.Tan[i] != ws.Tan[i] {
			t.Fatalf("tangent %d: window %v, monolithic %v (not bit-identical)", i, ws.Tan[i], ms.Tan[i])
		}
	}
	for i := range ms.SVF {
		if ms.SVF[i] != ws.SVF[i] {
			t.Fatalf("svf %d: window %v, monolithic %v (not bit-identical)", i, ws.SVF[i], ms.SVF[i])
		}
	}

	// Sanity: the wall must actually obstruct — an all-zero map would
	// pass the comparison vacuously.
	nonZero := 0
	for _, v := range ms.Tan {
		if v > 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("test scene produced a trivially open horizon")
	}

	// Control: the same window *without* its origin marches different
	// floats — this is the failure mode the origin field exists for.
	bare := win.Clone()
	bare.SetOrigin(geom.Cell{})
	shifted, err := build(bare, local, opts)
	if err != nil {
		t.Fatal(err)
	}
	ss := shifted.Snapshot()
	same := true
	for i := range ms.Tan {
		if ms.Tan[i] != ss.Tan[i] {
			same = false
			break
		}
	}
	if same {
		t.Log("note: origin-less window happened to match monolithic on this scene")
	}
}
