// Package dsm models the Digital Surface Model — the high-resolution
// elevation raster that GIS pipelines derive from LiDAR surveys and
// that the paper uses (§IV) to recognise roof encumbrances and to
// compute shadow evolution. Since the paper's LiDAR rasters of the
// three Turin roofs are proprietary, this package also provides a
// synthetic scene builder that constructs equivalent DSMs: tilted roof
// planes populated with parameterised obstacles (pipe runs, chimneys,
// dormers, HVAC cabinets) and surrounded by taller structures, so the
// downstream pipeline (suitable-area extraction, horizon maps, shadow
// simulation) exercises exactly the code paths real LiDAR data would.
package dsm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Raster is a regular elevation grid. Heights are in metres above an
// arbitrary datum; the cell size is the ground-plan pitch in metres
// (the paper's virtual grid uses s = 0.20 m).
//
// A raster may be a window into a larger city grid: origin records the
// window's offset in global cells. Cell addressing (At/Set/Bounds)
// stays local, but the metric methods (AtMetres, CellCenterMetres)
// work in global coordinates so horizon ray-marching over a window
// performs bit-for-bit the same float operations as over the full
// grid — the property the city pipeline's equivalence guarantee
// rests on.
type Raster struct {
	w, h     int
	cellSize float64
	origin   geom.Cell
	z        []float64
}

// NewRaster allocates a w×h raster with the given cell size in
// metres, initialised to elevation zero. The cell size must be
// positive and finite.
func NewRaster(w, h int, cellSize float64) (*Raster, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("dsm: non-positive raster dims %dx%d", w, h)
	}
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		return nil, fmt.Errorf("dsm: cell size %g is not a positive finite number", cellSize)
	}
	return &Raster{w: w, h: h, cellSize: cellSize, z: make([]float64, w*h)}, nil
}

// W returns the raster width in cells.
func (r *Raster) W() int { return r.w }

// H returns the raster height in cells.
func (r *Raster) H() int { return r.h }

// CellSize returns the grid pitch in metres.
func (r *Raster) CellSize() float64 { return r.cellSize }

// Bounds returns the full raster rectangle in local cells.
func (r *Raster) Bounds() geom.Rect { return geom.Rect{X0: 0, Y0: 0, X1: r.w, Y1: r.h} }

// Origin returns the raster's offset, in cells, from the global grid
// origin. Stand-alone rasters have origin (0,0).
func (r *Raster) Origin() geom.Cell { return r.origin }

// SetOrigin marks the raster as a window whose local cell (0,0) sits
// at global cell o. Only the metric accessors and ContentHash observe
// the origin.
func (r *Raster) SetOrigin(o geom.Cell) { r.origin = o }

// InBounds reports whether c addresses a raster cell.
func (r *Raster) InBounds(c geom.Cell) bool {
	return c.X >= 0 && c.X < r.w && c.Y >= 0 && c.Y < r.h
}

// At returns the elevation at cell c. Out-of-bounds reads return 0
// (the ground datum), which is the natural continuation for scenes
// embedded in flat surroundings.
func (r *Raster) At(c geom.Cell) float64 {
	if !r.InBounds(c) {
		return 0
	}
	return r.z[c.Y*r.w+c.X]
}

// Set writes the elevation at cell c; out-of-bounds writes panic.
func (r *Raster) Set(c geom.Cell, z float64) {
	if !r.InBounds(c) {
		panic("dsm: Set out of bounds: " + c.String())
	}
	r.z[c.Y*r.w+c.X] = z
}

// AtMetres returns the elevation at the plan position (east, south)
// metres from the *global* grid origin, using nearest-cell sampling.
// Points outside the raster read as 0. The floor happens in global
// cell space and the window origin is subtracted as an integer, so a
// window and the full grid resolve any xm, ym to the same cell.
func (r *Raster) AtMetres(xm, ym float64) float64 {
	return r.At(r.CellAtMetres(xm, ym))
}

// CellAtMetres returns the local cell AtMetres samples at the plan
// position (xm, ym); it may lie outside the raster, where AtMetres
// reads 0.
func (r *Raster) CellAtMetres(xm, ym float64) geom.Cell {
	return geom.Cell{
		X: int(math.Floor(xm/r.cellSize)) - r.origin.X,
		Y: int(math.Floor(ym/r.cellSize)) - r.origin.Y,
	}
}

// CellCenterMetres returns the plan position of the cell center in
// metres from the *global* grid origin (x grows east, y grows south).
// The origin offset is added in integer cells before the float
// conversion, so the result is bit-identical whether c is addressed
// through a window or through the full grid.
func (r *Raster) CellCenterMetres(c geom.Cell) (xm, ym float64) {
	return (float64(r.origin.X+c.X) + 0.5) * r.cellSize, (float64(r.origin.Y+c.Y) + 0.5) * r.cellSize
}

// ContentHash returns a hex SHA-256 digest of the raster's identity:
// dimensions, cell size and every elevation's exact bit pattern. Two
// rasters share a hash iff they are cell-for-cell identical, so the
// persistent field-artifact cache uses it to key horizon maps — any
// edit to the surface (a new obstacle, a changed height) invalidates
// the cached artifacts derived from it.
func (r *Raster) ContentHash() string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(r.w))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(r.h))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.cellSize))
	h.Write(buf[:])
	for _, z := range r.z {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(z))
		h.Write(buf[:])
	}
	// Windows at distinct global offsets hold distinct physics (their
	// metric methods answer differently), so the origin joins the
	// identity — but only when set, keeping every pre-existing hash of
	// stand-alone rasters (golden corpus, committed fixtures) stable.
	if r.origin != (geom.Cell{}) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(r.origin.X)))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(r.origin.Y)))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Clone returns a deep copy of the raster, origin included.
func (r *Raster) Clone() *Raster {
	out := &Raster{w: r.w, h: r.h, cellSize: r.cellSize, origin: r.origin, z: make([]float64, len(r.z))}
	copy(out.z, r.z)
	return out
}

// Raise adds dz to every cell of rect (clipped to the raster).
func (r *Raster) Raise(rect geom.Rect, dz float64) {
	clipped := rect.Intersect(r.Bounds())
	for y := clipped.Y0; y < clipped.Y1; y++ {
		for x := clipped.X0; x < clipped.X1; x++ {
			r.z[y*r.w+x] += dz
		}
	}
}

// SetRectTo writes an absolute elevation into every cell of rect
// (clipped to the raster).
func (r *Raster) SetRectTo(rect geom.Rect, z float64) {
	clipped := rect.Intersect(r.Bounds())
	for y := clipped.Y0; y < clipped.Y1; y++ {
		for x := clipped.X0; x < clipped.X1; x++ {
			r.z[y*r.w+x] = z
		}
	}
}

// MaxAbove writes into rect the maximum of the current elevation and
// z (clipped). Obstacle stamping uses this so overlapping features
// keep the taller surface.
func (r *Raster) MaxAbove(rect geom.Rect, z float64) {
	clipped := rect.Intersect(r.Bounds())
	for y := clipped.Y0; y < clipped.Y1; y++ {
		for x := clipped.X0; x < clipped.X1; x++ {
			if r.z[y*r.w+x] < z {
				r.z[y*r.w+x] = z
			}
		}
	}
}

// Gradient returns Horn's finite-difference gradient at cell c:
// dz/dx toward east and dz/dy toward south, in metres per metre.
// Border cells use the clamped neighbourhood.
func (r *Raster) Gradient(c geom.Cell) (gx, gy float64) {
	at := func(dx, dy int) float64 {
		n := geom.Cell{X: clampInt(c.X+dx, 0, r.w-1), Y: clampInt(c.Y+dy, 0, r.h-1)}
		return r.At(n)
	}
	gx = ((at(1, -1) + 2*at(1, 0) + at(1, 1)) - (at(-1, -1) + 2*at(-1, 0) + at(-1, 1))) / (8 * r.cellSize)
	gy = ((at(-1, 1) + 2*at(0, 1) + at(1, 1)) - (at(-1, -1) + 2*at(0, -1) + at(1, -1))) / (8 * r.cellSize)
	return gx, gy
}

// SlopeAspect returns the surface tilt (radians from horizontal) and
// the downslope azimuth (radians clockwise from north) at cell c,
// derived from the Horn gradient. Flat cells return aspect 0.
func (r *Raster) SlopeAspect(c geom.Cell) (slopeRad, aspectRad float64) {
	gx, gy := r.Gradient(c)
	slopeRad = math.Atan(math.Hypot(gx, gy))
	if gx == 0 && gy == 0 {
		return 0, 0
	}
	// Downslope plan direction: (-gx, -gy) in (east, south) axes,
	// i.e. (east, north) = (-gx, +gy).
	aspectRad = math.Atan2(-gx, gy)
	if aspectRad < 0 {
		aspectRad += 2 * math.Pi
	}
	return slopeRad, aspectRad
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
