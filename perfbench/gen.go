package main

import (
	"math"
	"math/rand"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// The seeded input generator. A city is a lattice of square lots; every
// lot holds exactly one building in its northern part and, depending on
// the draw, a garden tree and a low wall in its southern strip. The mix
// of building kinds is fixed per block of lots (only their order is
// shuffled) and footprints vary within a few cells, so two seeds load
// the pipeline with the same roofs of each kind at nearly the same area
// and differ in geometry: slope, aspect, height, exact footprint,
// position and roof furniture. That keeps the work per seed within a
// few percent, which is what lets a seed-varied benchmark report a
// steady median.

const (
	cellSizeM = 0.2
	lotCells  = 90
)

// buildingKind names the three building shapes the generator stamps.
type buildingKind int

const (
	monopitch buildingKind = iota
	gabled
	garage
)

// Inventory reports what the generator placed, so the benchmark can
// check that extraction found every building and dropped every tree.
type Inventory struct {
	Buildings int `json:"buildings"`
	Monopitch int `json:"monopitch"`
	Gabled    int `json:"gabled"`
	Garages   int `json:"garages"`
	Chimneys  int `json:"chimneys"`
	Vents     int `json:"vents"`
	Trees     int `json:"trees"`
	Walls     int `json:"walls"`
}

// Roofs is the number of roof planes extraction should return: one per
// monopitch house and garage, two per gabled house.
func (inv Inventory) Roofs() int { return inv.Monopitch + 2*inv.Gabled + inv.Garages }

// kindMix returns the building kinds of an n-lot block in a fixed
// proportion: 4/9 monopitch, 3/9 gabled, the rest garages.
func kindMix(n int) []buildingKind {
	mono := (4*n + 4) / 9
	gab := (3*n + 4) / 9
	kinds := make([]buildingKind, n)
	for i := range kinds {
		switch {
		case i < mono:
			kinds[i] = monopitch
		case i < mono+gab:
			kinds[i] = gabled
		default:
			kinds[i] = garage
		}
	}
	return kinds
}

// GenerateCity builds a lotsX×lotsY-lot city DSM from seed. Lots are
// grouped in blocks of up to 3×3, and every block holds the kindMix of
// its lot count in seeded order, so each 3×3-lot work tile carries the
// same load whatever the seed. The same seed always yields the same
// raster (and so the same ContentHash).
func GenerateCity(seed int64, lotsX, lotsY int) (*dsm.Raster, Inventory) {
	rng := rand.New(rand.NewSource(seed))
	r, err := dsm.NewRaster(lotsX*lotCells, lotsY*lotCells, cellSizeM)
	if err != nil {
		panic("perfbench: city raster dimensions are constants: " + err.Error())
	}
	kinds := make([]buildingKind, lotsX*lotsY)
	for by := 0; by < lotsY; by += 3 {
		for bx := 0; bx < lotsX; bx += 3 {
			var lots []int
			for y := by; y < min(by+3, lotsY); y++ {
				for x := bx; x < min(bx+3, lotsX); x++ {
					lots = append(lots, y*lotsX+x)
				}
			}
			mix := kindMix(len(lots))
			rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
			for i, lot := range lots {
				kinds[lot] = mix[i]
			}
		}
	}
	var inv Inventory
	for ly := 0; ly < lotsY; ly++ {
		for lx := 0; lx < lotsX; lx++ {
			stampLot(r, rng, lx*lotCells, ly*lotCells, kinds[ly*lotsX+lx], &inv)
		}
	}
	return r, inv
}

// between draws an integer uniformly from [lo, hi].
func between(rng *rand.Rand, lo, hi int) int { return lo + rng.Intn(hi-lo+1) }

// uniform draws a float uniformly from [lo, hi).
func uniform(rng *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }

// stampLot places one building (rows 6..48 of the lot) and the garden
// clutter (rows 56..89) of the lot anchored at (x0, y0).
func stampLot(r *dsm.Raster, rng *rand.Rand, x0, y0 int, kind buildingKind, inv *Inventory) {
	var w, h int
	switch kind {
	case monopitch:
		w, h = between(rng, 42, 46), between(rng, 28, 32)
	case gabled:
		// An even span across the ridge keeps every cell off the ridge
		// line, so each pane is an exact plane.
		w, h = 2*between(rng, 21, 23), 2*between(rng, 15, 17)
	case garage:
		w, h = between(rng, 24, 26), between(rng, 19, 21)
	}
	bx := x0 + between(rng, 6, lotCells-6-w)
	by := y0 + between(rng, 6, 48-h)
	rect := geom.Rect{X0: bx, Y0: by, X1: bx + w, Y1: by + h}
	inv.Buildings++
	switch kind {
	case monopitch:
		inv.Monopitch++
		stampMonopitch(r, rect, uniform(rng, 3, 4), uniform(rng, 15, 35), uniform(rng, 120, 240))
	case gabled:
		inv.Gabled++
		stampGabled(r, rect, uniform(rng, 3, 4), uniform(rng, 22, 35), rng.Intn(2) == 0)
	case garage:
		inv.Garages++
		stampMonopitch(r, rect, uniform(rng, 2.9, 3.5), 0, 0)
	}
	if kind != garage {
		// Roof furniture sits well inside the footprint so it stays an
		// in-roof encumbrance rather than a separate component.
		if rng.Intn(2) == 0 {
			cx, cy := bx+between(rng, 4, w-6), by+between(rng, 4, h-6)
			r.Raise(geom.Rect{X0: cx, Y0: cy, X1: cx + 2, Y1: cy + 2}, uniform(rng, 0.8, 1.2))
			inv.Chimneys++
		}
		if rng.Intn(2) == 0 {
			cx, cy := bx+between(rng, 4, w-5), by+between(rng, 4, h-5)
			r.Raise(geom.Rect{X0: cx, Y0: cy, X1: cx + 1, Y1: cy + 1}, uniform(rng, 0.4, 0.7))
			inv.Vents++
		}
	}
	if rng.Intn(5) < 3 {
		at := geom.Cell{X: x0 + between(rng, 12, lotCells-12), Y: y0 + between(rng, 66, 74)}
		dsm.StampTreeCrown(r, at, uniform(rng, 1.3, 1.8), uniform(rng, 6, 8))
		inv.Trees++
	}
	if rng.Intn(2) == 0 {
		r.MaxAbove(geom.Rect{X0: x0 + 4, Y0: y0 + 87, X1: x0 + lotCells - 4, Y1: y0 + 88}, uniform(rng, 1.2, 1.6))
		inv.Walls++
	}
}

// stampMonopitch writes a prism whose top is one plane at the given
// slope, falling toward aspectDeg (degrees clockwise from north, y
// grows south), with its lowest corner at eaveZ — well above the
// extraction's building-height threshold, so the whole footprint counts
// as building. Slope 0 stamps a flat roof at eaveZ.
func stampMonopitch(r *dsm.Raster, rect geom.Rect, eaveZ, slopeDeg, aspectDeg float64) {
	tanS := math.Tan(slopeDeg * math.Pi / 180)
	sinA, cosA := math.Sincos(aspectDeg * math.Pi / 180)
	down := func(x, y int) float64 {
		return (float64(x-rect.X0)+0.5)*cellSizeM*sinA - (float64(y-rect.Y0)+0.5)*cellSizeM*cosA
	}
	maxDown := math.Inf(-1)
	for _, c := range [4][2]int{{rect.X0, rect.Y0}, {rect.X1 - 1, rect.Y0}, {rect.X0, rect.Y1 - 1}, {rect.X1 - 1, rect.Y1 - 1}} {
		maxDown = math.Max(maxDown, down(c[0], c[1]))
	}
	for y := rect.Y0; y < rect.Y1; y++ {
		for x := rect.X0; x < rect.X1; x++ {
			r.Set(geom.Cell{X: x, Y: y}, eaveZ+tanS*(maxDown-down(x, y)))
		}
	}
}

// stampGabled writes a symmetric gable whose ridge runs through the
// rect centre, along X when axisX is set and along Y otherwise, with
// its eaves at eaveZ.
func stampGabled(r *dsm.Raster, rect geom.Rect, eaveZ, slopeDeg float64, axisX bool) {
	tanS := math.Tan(slopeDeg * math.Pi / 180)
	half := float64(rect.H()) * cellSizeM / 2
	if !axisX {
		half = float64(rect.W()) * cellSizeM / 2
	}
	ridgeZ := eaveZ + tanS*half
	for y := rect.Y0; y < rect.Y1; y++ {
		for x := rect.X0; x < rect.X1; x++ {
			u, mid := (float64(x-rect.X0)+0.5)*cellSizeM, float64(rect.W())*cellSizeM/2
			if axisX {
				u, mid = (float64(y-rect.Y0)+0.5)*cellSizeM, float64(rect.H())*cellSizeM/2
			}
			r.Set(geom.Cell{X: x, Y: y}, ridgeZ-tanS*math.Abs(u-mid))
		}
	}
}
