package horizon

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// flatRasterWithWall builds a 40x40 flat raster (cell 0.2 m) with a
// 5 m tall wall along columns x=30..31 (east side).
// build is the one-region BuildRegions a roof's map comes from,
// marched serially.
func build(r *dsm.Raster, region geom.Rect, opts Options) (*Map, error) {
	return BuildRegions(r, []geom.Rect{region}, opts, 1)
}

func flatRasterWithWall(t *testing.T) *dsm.Raster {
	t.Helper()
	r, err := dsm.NewRaster(40, 40, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r.SetRectTo(geom.Rect{X0: 30, Y0: 0, X1: 32, Y1: 40}, 5)
	return r
}

func TestBuildValidation(t *testing.T) {
	r := flatRasterWithWall(t)
	if _, err := build(r, geom.Rect{X0: 0, Y0: 0, X1: 50, Y1: 10}, Options{}); err == nil {
		t.Error("region outside raster must be rejected")
	}
	if _, err := build(r, geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Options{Sectors: 2}); err == nil {
		t.Error("too few sectors must be rejected")
	}
	if _, err := build(r, geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Options{FarStepM: -1}); err == nil {
		t.Error("negative step must be rejected")
	}
}

func TestWallHorizonGeometry(t *testing.T) {
	r := flatRasterWithWall(t)
	region := geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 40}
	m, err := build(r, region, Options{Sectors: 64})
	if err != nil {
		t.Fatal(err)
	}

	// A cell 4 m west of the wall (x=10 → wall at x=30, distance
	// ≈ 20 cells ≈ 4 m): expected horizon tangent toward east ≈ 5/4.
	cell := geom.Cell{X: 10, Y: 20}
	east := math.Pi / 2
	tanEast := m.HorizonTan(cell, east)
	wantTan := 5.0 / 4.0
	if math.Abs(tanEast-wantTan) > 0.15*wantTan {
		t.Errorf("horizon tangent toward wall = %.3f, want ≈ %.3f", tanEast, wantTan)
	}
	// Toward the west there is nothing: horizon 0.
	if tanWest := m.HorizonTan(cell, 3*math.Pi/2); tanWest != 0 {
		t.Errorf("horizon tangent west = %.3f, want 0", tanWest)
	}

	// Shadow test: sun in the east below the wall angle → shadowed;
	// above → lit; any sun in the west → lit.
	low := math.Atan(wantTan) - 0.15
	high := math.Atan(wantTan) + 0.15
	if !m.Shadowed(cell, east, low) {
		t.Error("low eastern sun must be shadowed by the wall")
	}
	if m.Shadowed(cell, east, high) {
		t.Error("high eastern sun must clear the wall")
	}
	if m.Shadowed(cell, 3*math.Pi/2, 0.05) {
		t.Error("western sun must not be shadowed")
	}
	if !m.Shadowed(cell, east, -0.01) {
		t.Error("sun below horizon is always shadowed")
	}
}

func TestShadowDistanceFalloff(t *testing.T) {
	// Cells farther from the wall see a lower horizon.
	r := flatRasterWithWall(t)
	region := geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 40}
	m, err := build(r, region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	east := math.Pi / 2
	near := m.HorizonTan(geom.Cell{X: 25, Y: 20}, east)
	far := m.HorizonTan(geom.Cell{X: 2, Y: 20}, east)
	if !(near > far && far > 0) {
		t.Errorf("horizon should fall with distance: near=%.3f far=%.3f", near, far)
	}
}

func TestSVFBehaviour(t *testing.T) {
	r := flatRasterWithWall(t)
	region := geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 40}
	m, err := build(r, region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// SVF near the wall is depressed; far from the wall ≈ 1.
	nearSVF := m.SVF(geom.Cell{X: 28, Y: 20})
	farSVF := m.SVF(geom.Cell{X: 1, Y: 20})
	if !(nearSVF < farSVF) {
		t.Errorf("SVF should drop near the wall: near=%.3f far=%.3f", nearSVF, farSVF)
	}
	if farSVF < 0.9 || farSVF > 1.0 {
		t.Errorf("open-field SVF = %.3f, want ≈ 1", farSVF)
	}
	if nearSVF <= 0 || nearSVF > 1 {
		t.Errorf("SVF out of (0,1]: %.3f", nearSVF)
	}
}

func TestOpenFlatFieldUnshadowed(t *testing.T) {
	r, err := dsm.NewRaster(30, 30, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := build(r, geom.Rect{X0: 5, Y0: 5, X1: 25, Y1: 25}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		az := float64(s) * math.Pi / 4
		if m.Shadowed(geom.Cell{X: 10, Y: 10}, az, 0.01) {
			t.Errorf("flat field shadowed at azimuth %.2f", az)
		}
	}
	if svf := m.SVF(geom.Cell{X: 10, Y: 10}); svf != 1 {
		t.Errorf("flat-field SVF = %.4f, want 1", svf)
	}
}

func TestTiltedPlaneSelfHorizon(t *testing.T) {
	// A 26° south-descending plane: looking north (upslope) from any
	// cell, the surface itself forms a horizon ≈ tan(26°); looking
	// south (downslope) the horizon is 0.
	r, err := dsm.NewRaster(60, 60, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	tan26 := math.Tan(26 * math.Pi / 180)
	for y := 0; y < 60; y++ {
		for x := 0; x < 60; x++ {
			r.Set(geom.Cell{X: x, Y: y}, 20-tan26*0.2*float64(y))
		}
	}
	m, err := build(r, geom.Rect{X0: 20, Y0: 20, X1: 40, Y1: 40}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := geom.Cell{X: 10, Y: 15} // region-local
	north := m.HorizonTan(c, 0)
	south := m.HorizonTan(c, math.Pi)
	if math.Abs(north-tan26) > 0.1*tan26 {
		t.Errorf("upslope self-horizon = %.3f, want ≈ %.3f", north, tan26)
	}
	if south != 0 {
		t.Errorf("downslope horizon = %.3f, want 0", south)
	}
}

func TestSectorQuantisation(t *testing.T) {
	r := flatRasterWithWall(t)
	m, err := build(r, geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Options{Sectors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m.Sectors() != 8 {
		t.Fatalf("Sectors = %d", m.Sectors())
	}
	// Azimuth wrapping: -π/2 ≡ 3π/2, 2π+x ≡ x.
	if m.SectorOf(-math.Pi/2) != m.SectorOf(3*math.Pi/2) {
		t.Error("negative azimuth wrap failed")
	}
	if m.SectorOf(2*math.Pi+0.1) != m.SectorOf(0.1) {
		t.Error("over-2π wrap failed")
	}
	// Full circle maps within range.
	for az := -10.0; az < 10; az += 0.37 {
		s := m.SectorOf(az)
		if s < 0 || s >= 8 {
			t.Fatalf("sector %d out of range for azimuth %.2f", s, az)
		}
	}
}

func TestShadowedIdxAgreesWithShadowed(t *testing.T) {
	r := flatRasterWithWall(t)
	region := geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 40}
	m, err := build(r, region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, az := range []float64{0, math.Pi / 2, math.Pi, 4.7} {
		for _, elev := range []float64{0.05, 0.5, 1.2} {
			for _, c := range []geom.Cell{{X: 3, Y: 3}, {X: 25, Y: 20}, {X: 0, Y: 39}} {
				idx := c.Y*region.W() + c.X
				a := m.Shadowed(c, az, elev)
				b := m.ShadowedIdx(idx, m.SectorOf(az), math.Tan(elev))
				if a != b {
					t.Fatalf("Shadowed disagreement at %v az=%.2f elev=%.2f: %v vs %v", c, az, elev, a, b)
				}
				if m.SVF(c) != m.SVFIdx(idx) {
					t.Fatalf("SVF disagreement at %v", c)
				}
			}
		}
	}
}

func TestThinPipeResolvedInNearField(t *testing.T) {
	// A 0.4 m wide, 0.6 m tall pipe 2 m away must be seen by the
	// near-field march (paper Roof 1 is dominated by pipe shading).
	r, err := dsm.NewRaster(60, 60, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r.SetRectTo(geom.Rect{X0: 40, Y0: 0, X1: 42, Y1: 60}, 0.6)
	m, err := build(r, geom.Rect{X0: 0, Y0: 0, X1: 40, Y1: 60}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cell := geom.Cell{X: 30, Y: 30} // 10 cells = 2 m west of pipe
	tanEast := m.HorizonTan(cell, math.Pi/2)
	// Eye at 0.05 m: expected tangent ≈ (0.6-0.05)/2.0 ≈ 0.27.
	if tanEast < 0.15 || tanEast > 0.35 {
		t.Errorf("pipe horizon tangent = %.3f, want ≈ 0.27", tanEast)
	}
}

func TestShadowMaskSnapshot(t *testing.T) {
	r := flatRasterWithWall(t)
	region := geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 40}
	m, err := build(r, region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Mid-height eastern sun (1.0 rad, tan ≈ 1.56): the cell hugging
	// the wall (horizon tan ≈ 12) stays shadowed, the far cell
	// (5 m wall at 5.8 m → tan ≈ 0.85) is lit.
	mask := m.ShadowMask(math.Pi/2, 1.0)
	if mask.W() != 30 || mask.H() != 40 {
		t.Fatalf("mask dims %dx%d", mask.W(), mask.H())
	}
	if !mask.Get(geom.Cell{X: 28, Y: 20}) {
		t.Error("cell hugging the wall should be shadowed")
	}
	if mask.Get(geom.Cell{X: 1, Y: 20}) {
		t.Error("far cell should be lit at tan(1.0 rad) over a 5 m wall 5.8 m away")
	}
	// Consistency with the per-cell test.
	for _, c := range []geom.Cell{{X: 2, Y: 2}, {X: 15, Y: 30}, {X: 29, Y: 0}} {
		if mask.Get(c) != m.Shadowed(c, math.Pi/2, 1.0) {
			t.Fatalf("mask disagrees with Shadowed at %v", c)
		}
	}
	// Night: everything shadowed.
	night := m.ShadowMask(0, -0.1)
	if night.Count() != 30*40 {
		t.Error("night mask must be fully set")
	}
	// High sun: nothing shadowed.
	noon := m.ShadowMask(math.Pi, 1.4)
	if noon.Count() != 0 {
		t.Errorf("zenith sun mask has %d shadowed cells", noon.Count())
	}
}

func TestShadowMonotoneInElevationProperty(t *testing.T) {
	// If a cell is lit at elevation e, it stays lit at any higher
	// elevation (same azimuth) — the fundamental horizon invariant.
	r := flatRasterWithWall(t)
	m, err := build(r, geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 40}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(cx, cy uint8, azRaw, e1Raw, e2Raw uint16) bool {
		c := geom.Cell{X: int(cx) % 30, Y: int(cy) % 40}
		az := float64(azRaw) / 65535 * 2 * math.Pi
		e1 := float64(e1Raw) / 65535 * 1.5
		e2 := float64(e2Raw) / 65535 * 1.5
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		// e2 >= e1: shadowed at e2 implies shadowed at e1.
		if m.Shadowed(c, az, e2) && !m.Shadowed(c, az, e1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// flatRaster builds a w×h flat raster at the paper's 0.2 m pitch.
func flatRaster(t *testing.T, w, h int) *dsm.Raster {
	t.Helper()
	r, err := dsm.NewRaster(w, h, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSnapshotRoundTrip: a map restored from its snapshot must be
// bit-identical in every lookup.
func TestSnapshotRoundTrip(t *testing.T) {
	r := flatRaster(t, 40, 30)
	r.MaxAbove(geom.Rect{X0: 20, Y0: 10, X1: 23, Y1: 13}, 4)
	region := geom.Rect{X0: 4, Y0: 4, X1: 36, Y1: 26}
	m, err := build(r, region, Options{Sectors: 16, MaxDistanceM: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromSnapshot(m.Snapshot(), m.BuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.Sectors() != m.Sectors() || got.Region() != m.Region() || got.BuildOptions() != m.BuildOptions() {
		t.Fatalf("restored shape %d/%v, want %d/%v", got.Sectors(), got.Region(), m.Sectors(), m.Region())
	}
	for idx := 0; idx < region.Area(); idx++ {
		if got.SVFIdx(idx) != m.SVFIdx(idx) {
			t.Fatalf("cell %d: SVF %v vs %v", idx, got.SVFIdx(idx), m.SVFIdx(idx))
		}
		for s := 0; s < m.Sectors(); s++ {
			if got.TanRow(idx)[s] != m.TanRow(idx)[s] {
				t.Fatalf("cell %d sector %d: tan differs", idx, s)
			}
		}
	}
}

// TestFromSnapshotRejectsMangledShapes: truncated or inconsistent
// snapshots must be refused, not trusted.
func TestFromSnapshotRejectsMangledShapes(t *testing.T) {
	r := flatRaster(t, 20, 20)
	region := geom.Rect{X0: 2, Y0: 2, X1: 18, Y1: 18}
	m, err := build(r, region, Options{Sectors: 8, MaxDistanceM: 5})
	if err != nil {
		t.Fatal(err)
	}
	good := m.Snapshot()
	for _, mangle := range []func(s Snapshot) Snapshot{
		func(s Snapshot) Snapshot { s.Tan = s.Tan[:len(s.Tan)-1]; return s },
		func(s Snapshot) Snapshot { s.SVF = nil; return s },
		func(s Snapshot) Snapshot { s.Sectors = 0; return s },
		func(s Snapshot) Snapshot { s.Region = geom.Rect{}; return s },
		func(s Snapshot) Snapshot { s.Sectors = 16; return s },
	} {
		if _, err := FromSnapshot(mangle(good), m.BuildOptions()); err == nil {
			t.Error("mangled snapshot must be rejected")
		}
	}
	if _, err := FromSnapshot(good, m.BuildOptions()); err != nil {
		t.Errorf("pristine snapshot rejected: %v", err)
	}
}

// TestBuildRegionsSliceMatchesBuild pins the tentpole equivalence at
// the lowest level: a per-roof view sliced out of a tile-level
// BuildRegions map must be bit-identical to a direct one-region
// BuildRegions over the same rect (the per-roof path) — for disjoint
// regions, overlapping regions, and sub-rects of a region — while
// ray-marching only once.
func TestBuildRegionsSliceMatchesBuild(t *testing.T) {
	r := flatRasterWithWall(t)
	r.MaxAbove(geom.Rect{X0: 8, Y0: 30, X1: 11, Y1: 33}, 3)
	opts := Options{Sectors: 16, MaxDistanceM: 6}
	regions := []geom.Rect{
		{X0: 2, Y0: 2, X1: 14, Y1: 12},
		{X0: 18, Y0: 20, X1: 28, Y1: 36},
		{X0: 10, Y0: 8, X1: 20, Y1: 24}, // overlaps both
	}
	before := BuildCount()
	tile, err := BuildRegions(r, regions, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := BuildCount() - before; got != 1 {
		t.Fatalf("BuildRegions incremented BuildCount by %d, want 1", got)
	}
	wantBBox := regions[0].Union(regions[1]).Union(regions[2])
	if tile.Region() != wantBBox {
		t.Fatalf("tile region %v, want bbox %v", tile.Region(), wantBBox)
	}
	checks := append([]geom.Rect{}, regions...)
	checks = append(checks, geom.Rect{X0: 4, Y0: 4, X1: 10, Y1: 10}) // sub-rect of regions[0]
	for _, reg := range checks {
		view, err := tile.Slice(reg)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := BuildRegions(r, []geom.Rect{reg}, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		if view.Region() != reg || view.Sectors() != direct.Sectors() {
			t.Fatalf("slice %v shape mismatch", reg)
		}
		for idx := 0; idx < reg.Area(); idx++ {
			if view.SVFIdx(idx) != direct.SVFIdx(idx) {
				t.Fatalf("region %v cell %d: sliced SVF %v != built %v",
					reg, idx, view.SVFIdx(idx), direct.SVFIdx(idx))
			}
			vr, dr := view.TanRow(idx), direct.TanRow(idx)
			for s := range vr {
				if vr[s] != dr[s] {
					t.Fatalf("region %v cell %d sector %d: sliced tan differs from direct build", reg, idx, s)
				}
			}
		}
	}
	// Slicing never counts as a build.
	if got := BuildCount() - before; got != 1+uint64(len(checks)) {
		t.Fatalf("unexpected BuildCount delta %d (direct builds only)", got)
	}
}

// TestBuildRegionsWorkerDeterminism: the parallel tile build writes
// disjoint per-cell storage, so any worker count is bit-identical.
func TestBuildRegionsWorkerDeterminism(t *testing.T) {
	r := flatRasterWithWall(t)
	regions := []geom.Rect{{X0: 0, Y0: 0, X1: 20, Y1: 20}, {X0: 12, Y0: 24, X1: 30, Y1: 40}}
	opts := Options{Sectors: 8, MaxDistanceM: 4}
	ref, err := BuildRegions(r, regions, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		m, err := BuildRegions(r, regions, opts, workers)
		if err != nil {
			t.Fatal(err)
		}
		rs, ms := ref.Snapshot(), m.Snapshot()
		if rs.Region != ms.Region || rs.Sectors != ms.Sectors {
			t.Fatalf("workers=%d: shape mismatch", workers)
		}
		for i := range rs.Tan {
			if rs.Tan[i] != ms.Tan[i] {
				t.Fatalf("workers=%d: tan[%d] differs", workers, i)
			}
		}
		for i := range rs.SVF {
			if rs.SVF[i] != ms.SVF[i] {
				t.Fatalf("workers=%d: svf[%d] differs", workers, i)
			}
		}
	}
}

func TestBuildRegionsValidation(t *testing.T) {
	r := flatRaster(t, 20, 20)
	if _, err := BuildRegions(r, nil, Options{}, 1); err == nil {
		t.Error("empty region list accepted")
	}
	if _, err := BuildRegions(r, []geom.Rect{{X0: 5, Y0: 5, X1: 5, Y1: 9}}, Options{}, 1); err == nil {
		t.Error("empty rect accepted")
	}
	if _, err := BuildRegions(r, []geom.Rect{{X0: 0, Y0: 0, X1: 30, Y1: 10}}, Options{}, 1); err == nil {
		t.Error("out-of-bounds region accepted")
	}
	if _, err := BuildRegions(r, []geom.Rect{{X0: 0, Y0: 0, X1: 10, Y1: 10}}, Options{Sectors: 2}, 1); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestOptionsRejectUnboundedMarch: BuildRegions refuses options it
// could not march in bounded time and memory. NaN passes every "<= 0"
// check and an infinite reach never ends a ray, so non-finite fields
// are rejected up front, as is a schedule of more than maxSamples
// samples per ray. A rejected build does not count in BuildCount.
func TestOptionsRejectUnboundedMarch(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		opts Options
	}{
		{"NaN reach", Options{MaxDistanceM: nan}},
		{"+Inf reach", Options{MaxDistanceM: inf}},
		{"-Inf reach", Options{MaxDistanceM: -inf}},
		{"NaN near step", Options{NearStepM: nan}},
		{"+Inf near step", Options{NearStepM: inf}},
		{"NaN near field", Options{NearFieldM: nan}},
		{"+Inf near field", Options{NearFieldM: inf}},
		{"NaN far step", Options{FarStepM: nan}},
		{"+Inf far step", Options{FarStepM: inf}},
		{"NaN eye height", Options{EyeHeightM: nan}},
		{"+Inf eye height", Options{EyeHeightM: inf}},
		{"schedule too long", Options{NearStepM: 1e-4, NearFieldM: 12}},
		{"step lost in the distance", Options{NearStepM: 1e5, FarStepM: 1e-12, MaxDistanceM: 2e5}},
	}
	r := flatRaster(t, 20, 20)
	region := []geom.Rect{{X0: 0, Y0: 0, X1: 4, Y1: 4}}
	before := BuildCount()
	for _, tc := range cases {
		if _, err := BuildRegions(r, region, tc.opts, 1); err == nil {
			t.Errorf("%s: options %+v accepted", tc.name, tc.opts)
		}
	}
	if n := BuildCount() - before; n != 0 {
		t.Errorf("rejected builds counted %d times in BuildCount", n)
	}
	p, err := newMarchPlan(r, Options{}.withDefaults(r.CellSize()))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.d) != 256 {
		t.Errorf("default schedule has %d samples per ray, want 256", len(p.d))
	}
}

func TestSliceValidation(t *testing.T) {
	r := flatRaster(t, 20, 20)
	m, err := build(r, geom.Rect{X0: 4, Y0: 4, X1: 16, Y1: 16}, Options{Sectors: 8, MaxDistanceM: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []geom.Rect{
		{X0: 0, Y0: 0, X1: 8, Y1: 8},     // sticks out north-west
		{X0: 10, Y0: 10, X1: 18, Y1: 14}, // sticks out east
		{X0: 6, Y0: 6, X1: 6, Y1: 10},    // empty
	} {
		if _, err := m.Slice(sub); err == nil {
			t.Errorf("slice %v outside region %v accepted", sub, m.Region())
		}
		if m.Covers(sub) {
			t.Errorf("Covers(%v) true for region %v", sub, m.Region())
		}
	}
	if !m.Covers(m.Region()) {
		t.Error("map must cover its own region")
	}
}

// TestBuildOptionsProvenance: maps remember the resolved options they
// were marched with; slices inherit them and snapshot restores record
// the options their caller supplies.
func TestBuildOptionsProvenance(t *testing.T) {
	r := flatRaster(t, 20, 20)
	opts := Options{Sectors: 8, MaxDistanceM: 3}
	resolved := opts.Resolved(r.CellSize())
	if resolved.NearStepM != r.CellSize()/2 || resolved.EyeHeightM != 0.05 {
		t.Fatalf("Resolved did not apply defaults: %+v", resolved)
	}
	m, err := build(r, geom.Rect{X0: 2, Y0: 2, X1: 18, Y1: 18}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.BuildOptions() != resolved {
		t.Fatalf("BuildOptions %+v, want resolved %+v", m.BuildOptions(), resolved)
	}
	view, err := m.Slice(geom.Rect{X0: 4, Y0: 4, X1: 10, Y1: 10})
	if err != nil {
		t.Fatal(err)
	}
	if view.BuildOptions() != resolved {
		t.Error("slice must inherit the source map's build options")
	}
	known, err := FromSnapshot(m.Snapshot(), resolved)
	if err != nil {
		t.Fatal(err)
	}
	if known.BuildOptions() != resolved {
		t.Error("FromSnapshot must record the supplied options")
	}
}

// TestTanRowMatchesHorizonTan: the kernel's row accessor must agree
// with the per-azimuth lookup.
func TestTanRowMatchesHorizonTan(t *testing.T) {
	r := flatRaster(t, 30, 30)
	r.MaxAbove(geom.Rect{X0: 14, Y0: 14, X1: 16, Y1: 16}, 6)
	region := geom.Rect{X0: 2, Y0: 2, X1: 28, Y1: 28}
	m, err := build(r, region, Options{Sectors: 32, MaxDistanceM: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := geom.Cell{X: 10, Y: 10}
	idx := c.Y*region.W() + c.X
	row := m.TanRow(idx)
	for s := 0; s < m.Sectors(); s++ {
		az := (float64(s) + 0.5) * 2 * math.Pi / float64(m.Sectors())
		if want := m.HorizonTan(c, az); float64(row[s]) != want {
			t.Fatalf("sector %d: TanRow %v vs HorizonTan %v", s, row[s], want)
		}
	}
}
