// Package horizon precomputes per-cell azimuthal horizon maps from a
// DSM, turning the shadow test the paper needs at every grid point and
// 15-minute timestep (§IV) into an O(1) lookup. This is the same
// device GRASS r.horizon/r.sun use: for each cell, store the maximum
// obstruction elevation per azimuth sector; a cell is beam-shadowed at
// an instant iff the sun's elevation is below the stored horizon in
// the sun's azimuth sector.
package horizon

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/dsm"
	"repro/internal/geom"
	"repro/internal/parallel"
)

// Options tunes horizon-map construction. Every field must be finite.
type Options struct {
	// Sectors is the azimuth discretisation (default 64 ≈ 5.6°
	// sectors, narrower than the sun's 15-minute azimuth travel).
	Sectors int
	// MaxDistanceM bounds the ray march (default 80 m — obstacles
	// beyond that subtend negligible angles for rooftop features).
	MaxDistanceM float64
	// NearStepM is the march step inside NearFieldM (default half a
	// cell: thin pipes and chimney edges are resolved).
	NearStepM float64
	// NearFieldM is the fine-march radius (default 12 m).
	NearFieldM float64
	// FarStepM is the march step beyond the near field (default 0.5 m).
	FarStepM float64
	// EyeHeightM lifts the observation point above the surface
	// (default 0.05 m — the module plane sits just above the roof).
	EyeHeightM float64
}

// Resolved returns the options with all defaults applied for the
// given raster cell size — the exact parameter set BuildRegions
// marches with.
// Callers that need to compare two option values for build
// equivalence (e.g. deciding whether a shared tile-level map can
// stand in for a per-roof build) must compare resolved values, since
// distinct unresolved values can resolve to the same march.
func (o Options) Resolved(cellSize float64) Options { return o.withDefaults(cellSize) }

func (o Options) withDefaults(cellSize float64) Options {
	if o.Sectors == 0 {
		o.Sectors = 64
	}
	if o.MaxDistanceM == 0 {
		o.MaxDistanceM = 80
	}
	if o.NearStepM == 0 {
		o.NearStepM = cellSize / 2
	}
	if o.NearFieldM == 0 {
		o.NearFieldM = 12
	}
	if o.FarStepM == 0 {
		o.FarStepM = 0.5
	}
	if o.EyeHeightM == 0 {
		o.EyeHeightM = 0.05
	}
	return o
}

func (o Options) validate() error {
	if o.Sectors < 4 {
		return fmt.Errorf("horizon: need at least 4 sectors, got %d", o.Sectors)
	}
	for _, v := range []float64{o.MaxDistanceM, o.NearStepM, o.NearFieldM, o.FarStepM, o.EyeHeightM} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("horizon: non-finite march parameter %g", v)
		}
	}
	if o.MaxDistanceM <= 0 || o.NearStepM <= 0 || o.FarStepM <= 0 {
		return fmt.Errorf("horizon: non-positive march parameters")
	}
	if o.NearFieldM < 0 || o.EyeHeightM < 0 {
		return fmt.Errorf("horizon: negative near field or eye height")
	}
	return nil
}

// Map stores per-cell horizon tangents for a rectangular region of a
// DSM. Cells are indexed region-locally in row-major order.
type Map struct {
	region  geom.Rect
	sectors int
	// opts records the resolved build options the map was ray-marched
	// with (supplied by the caller for maps restored via FromSnapshot).
	// Kept in memory only: Snapshot stays gob-compatible with artifacts
	// written by older binaries.
	opts Options
	// tan[cell*sectors+s] is the tangent of the horizon elevation in
	// sector s. float32 halves memory with no meaningful precision
	// loss (the sun's disc is half a degree wide).
	tan []float32
	svf []float32 // per-cell sky view factor
}

// buildCount tallies ray-marched BuildRegions executions
// process-wide; cache tests use it to assert that warm runs construct
// no horizon maps.
var buildCount atomic.Uint64

// BuildCount reports how many times BuildRegions has ray-marched a
// horizon map in this process. Maps restored from snapshots (the
// persistent artifact cache) and views cut with Slice do not count.
func BuildCount() uint64 { return buildCount.Load() }

// sectorDirs precomputes the sector plan directions (east, south) —
// raster y grows southward.
func sectorDirs(sectors int) (dirX, dirY []float64) {
	dirX = make([]float64, sectors)
	dirY = make([]float64, sectors)
	for s := 0; s < sectors; s++ {
		az := (float64(s) + 0.5) * 2 * math.Pi / float64(sectors)
		dirX[s] = math.Sin(az)  // east component
		dirY[s] = -math.Cos(az) // south = -north
	}
	return dirX, dirY
}

// Shape of the march plan. maxSamples bounds the samples per ray (the
// defaults take 256). The samples are cut into chunks of at most
// chunkSamples samples spanning at most chunkCells cells, and the DSM
// is summarised as the maximum height of each blockCells×blockCells
// block; a chunk whose covering blocks cannot raise the horizon is
// skipped.
const (
	maxSamples   = 1 << 16
	chunkSamples = 16
	chunkCells   = 12
	blockCells   = 8
)

// marchPlan is what every ray of one BuildRegions call shares,
// computed once per call and read-only afterwards: the sample
// distances with their chunk cuts, the sector directions and the
// raster's height bounds. It is never memoised on the raster, which
// callers may still mutate between builds.
type marchPlan struct {
	r          *dsm.Raster
	eye        float64
	dirX, dirY []float64 // sector plan directions (east, south)
	d          []float64 // sample distances along every ray, non-decreasing, > 0
	cuts       []int     // chunk k is d[cuts[k]:cuts[k+1]]
	zTop       float64   // max(0, every non-NaN height): bounds every read
	blk        []float64 // per block, max non-NaN height (-Inf if none)
	bw         int       // block grid width
	// cellsExact reports that every sample's global cell coordinate
	// lies far inside the exact int range, so the cell AtMetres reads
	// moves monotonically along a ray; the chunk skip relies on it.
	cellsExact bool
}

// newMarchPlan resolves the ray schedule of the validated options and
// scans the raster once for its height bounds.
func newMarchPlan(r *dsm.Raster, opts Options) (*marchPlan, error) {
	p := &marchPlan{r: r, eye: opts.EyeHeightM}
	p.dirX, p.dirY = sectorDirs(opts.Sectors)
	// The distance sequence is accumulated exactly as a per-ray march
	// would, so every ray samples the same float distances.
	cs := r.CellSize()
	for d := opts.NearStepM; d <= opts.MaxDistanceM; {
		if len(p.d) == maxSamples {
			return nil, fmt.Errorf("horizon: march needs more than %d samples per ray", maxSamples)
		}
		if n := len(p.cuts); n == 0 || len(p.d)-p.cuts[n-1] == chunkSamples || d-p.d[p.cuts[n-1]] > chunkCells*cs {
			p.cuts = append(p.cuts, len(p.d)) // start a new chunk
		}
		p.d = append(p.d, d)
		if d < opts.NearFieldM {
			d += opts.NearStepM
		} else {
			d += opts.FarStepM
		}
	}
	p.cuts = append(p.cuts, len(p.d))

	w, h := r.W(), r.H()
	p.bw = (w + blockCells - 1) / blockCells
	p.blk = make([]float64, p.bw*((h+blockCells-1)/blockCells))
	for i := range p.blk {
		p.blk[i] = math.Inf(-1)
	}
	for y := 0; y < h; y++ {
		row := p.blk[y/blockCells*p.bw:]
		for x := 0; x < w; x++ {
			if z := r.At(geom.Cell{X: x, Y: y}); z > row[x/blockCells] {
				row[x/blockCells] = z
			}
		}
	}
	for _, z := range p.blk {
		if z > p.zTop {
			p.zTop = z
		}
	}
	o := r.Origin()
	reach := float64(max(w, h)) + 2 + opts.MaxDistanceM/cs
	p.cellsExact = math.Abs(float64(o.X))+reach < 1<<40 && math.Abs(float64(o.Y))+reach < 1<<40
	return p, nil
}

// marchCell ray-marches every sector of one cell, writing the horizon
// tangents into tan (len = sectors) and returning the cell's sky view
// factor. The per-cell result depends only on the raster and the cell
// — not on which region the map covers — which is what makes a view
// sliced from a larger map bit-identical to a direct build.
func (p *marchPlan) marchCell(cell geom.Cell, tan []float32) float32 {
	x0, y0 := p.r.CellCenterMetres(cell)
	z0 := p.r.At(cell) + p.eye
	var svfSum float64
	for s := range p.dirX {
		t := p.marchSector(x0, y0, z0, p.dirX[s], p.dirY[s])
		tan[s] = float32(t)
		svfSum += 1 / (1 + t*t) // cos² of the horizon elevation
	}
	return float32(svfSum / float64(len(p.dirX)))
}

// BuildRegions is the horizon builder: it computes one map whose
// region is the bounding rectangle of the given regions (in raster
// coordinates), ray-marching only the cells covered by at least one
// region — each unique cell exactly once, however many regions overlap
// it. A single roof is the one-region case, whose map covers exactly
// that roof. Cells of the bounding rectangle outside every region are
// left at zero (fully open horizon) and must not be read: Slice out one
// of the requested regions instead. Each call counts once in
// BuildCount, whatever the number of regions.
//
// workers bounds the construction concurrency (0 = one per CPU,
// 1 = serial); the covered cells are split into ceil(n/workers)-cell
// chunks by parallel.Chunks. Cells are marched independently into
// disjoint storage, so the result is bit-identical for every worker
// count.
//
// The march is bounded but exact. Once per call BuildRegions lays out
// the sample distances every ray shares and scans the raster for its
// top height and 8×8-cell block maxima; marchSector then skips every
// stretch of samples whose height bound cannot raise the ray's running
// horizon tangent. Because the distances never decrease, reads outside
// the raster return 0 (which joins every bound that reaches outside)
// and IEEE subtraction and division by a positive number are
// monotone, every tangent and sky view factor is bit-identical to a
// march that reads every sample. The options must be finite, and
// their schedule may hold at most 65 536 samples per ray (the defaults
// take 256); anything else is an error, not a hang.
func BuildRegions(r *dsm.Raster, regions []geom.Rect, opts Options, workers int) (*Map, error) {
	opts = opts.withDefaults(r.CellSize())
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("horizon: BuildRegions with no regions")
	}
	bbox := regions[0]
	for _, reg := range regions {
		if reg.Empty() {
			return nil, fmt.Errorf("horizon: empty region %v", reg)
		}
		if reg.Intersect(r.Bounds()) != reg {
			return nil, fmt.Errorf("horizon: region %v exceeds raster bounds %v", reg, r.Bounds())
		}
		bbox = bbox.Union(reg)
	}
	plan, err := newMarchPlan(r, opts)
	if err != nil {
		return nil, err
	}
	buildCount.Add(1)
	w, h := bbox.W(), bbox.H()
	covered := geom.NewMask(w, h)
	for _, reg := range regions {
		covered.SetRect(geom.Rect{
			X0: reg.X0 - bbox.X0, Y0: reg.Y0 - bbox.Y0,
			X1: reg.X1 - bbox.X0, Y1: reg.Y1 - bbox.Y0,
		}, true)
	}
	m := &Map{
		region:  bbox,
		sectors: opts.Sectors,
		opts:    opts,
		tan:     make([]float32, bbox.Area()*opts.Sectors),
		svf:     make([]float32, bbox.Area()),
	}
	var cells []geom.Cell // covered cells, row-major (tile coordinates)
	covered.ForEachSet(func(c geom.Cell) {
		cells = append(cells, geom.Cell{X: c.X + bbox.X0, Y: c.Y + bbox.Y0})
	})
	parallel.Chunks(len(cells), workers, func(lo, hi int) {
		for _, c := range cells[lo:hi] {
			idx := (c.Y-bbox.Y0)*w + (c.X - bbox.X0)
			m.svf[idx] = plan.marchCell(c, m.tan[idx*opts.Sectors:(idx+1)*opts.Sectors])
		}
	})
	return m, nil
}

// Covers reports whether sub lies entirely inside the map's region.
func (m *Map) Covers(sub geom.Rect) bool {
	return !sub.Empty() && sub.Intersect(m.region) == sub
}

// Slice copies the sub-rectangle's horizon data out of the map as a
// standalone Map over sub, carrying the source map's build options.
// Because each cell's horizon depends only on the raster and the cell
// itself, the slice is bit-identical to a one-region BuildRegions over
// sub with the same options — provided every cell of sub was actually
// marched: sub must lie inside one of the requested regions, or a
// union of them. Slicing never ray-marches and does not count in
// BuildCount.
func (m *Map) Slice(sub geom.Rect) (*Map, error) {
	if !m.Covers(sub) {
		return nil, fmt.Errorf("horizon: slice %v outside map region %v", sub, m.region)
	}
	out := &Map{
		region:  sub,
		sectors: m.sectors,
		opts:    m.opts,
		tan:     make([]float32, sub.Area()*m.sectors),
		svf:     make([]float32, sub.Area()),
	}
	sw := sub.W()
	for y := 0; y < sub.H(); y++ {
		src := (sub.Y0-m.region.Y0+y)*m.region.W() + (sub.X0 - m.region.X0)
		dst := y * sw
		copy(out.svf[dst:dst+sw], m.svf[src:src+sw])
		copy(out.tan[dst*m.sectors:(dst+sw)*m.sectors], m.tan[src*m.sectors:(src+sw)*m.sectors])
	}
	return out, nil
}

// BuildOptions returns the resolved options the map was ray-marched
// with. A map restored with FromSnapshot reports the options its
// caller supplied, since the snapshot format does not carry them.
func (m *Map) BuildOptions() Options { return m.opts }

// marchSector walks outward from (x0,y0,z0) along the plan direction
// (dx,dy) and returns the maximum obstruction tangent: the largest
// (z − z0)/d over the ray's samples, or 0 when none is positive.
//
// It reads only the samples that could raise the running maximum
// maxTan, and is exact — bit-identical to reading every sample —
// because a skipped sample's tangent t = (z − z0)/d can never exceed
// maxTan. Each skip tests (bound − z0)/d₀ ≤ maxTan, where d₀ is the
// first distance of the skipped stretch and bound is a height with
// z ≤ bound for every sample of it:
//   - zTop bounds every read, since reads outside the raster return 0;
//     the test skips the rest of the ray;
//   - the blocks covering a chunk's first and last sample cells bound
//     the chunk, plus 0 when the chunk leaves the raster: the cell
//     floor((x0+dx·d)/cellsize) is monotone in d, so every sample cell
//     lies between the two endpoint cells (newMarchPlan checks that
//     cell coordinates stay exact ints; where they might not, chunkTop
//     falls back to zTop);
//   - the distances never decrease, so every skipped d ≥ d₀ > 0;
//   - IEEE subtraction and division by a positive number are monotone,
//     so z ≤ bound gives z − z0 ≤ bound − z0, and then
//     t ≤ (bound − z0)/d₀ when bound − z0 ≥ 0, or t ≤ 0 ≤ maxTan when not;
//   - a NaN height never raises maxTan, so the bounds ignore it, and a
//     NaN test fails, which marches the stretch.
func (p *marchPlan) marchSector(x0, y0, z0, dx, dy float64) float64 {
	maxTan := 0.0
	for k := 1; k < len(p.cuts); k++ {
		lo, hi := p.cuts[k-1], p.cuts[k]
		d0 := p.d[lo]
		if (p.zTop-z0)/d0 <= maxTan {
			break
		}
		if (p.chunkTop(x0, y0, dx, dy, d0, p.d[hi-1])-z0)/d0 <= maxTan {
			continue
		}
		for _, d := range p.d[lo:hi] {
			z := p.r.AtMetres(x0+dx*d, y0+dy*d)
			if t := (z - z0) / d; t > maxTan {
				maxTan = t
			}
		}
	}
	return maxTan
}

// chunkTop bounds the heights a ray samples between distances d0 and
// d1: the maximum over the blocks covering the cells between the two
// endpoint cells, and 0 when that box leaves the raster.
func (p *marchPlan) chunkTop(x0, y0, dx, dy, d0, d1 float64) float64 {
	if !p.cellsExact {
		return p.zTop
	}
	a := p.r.CellAtMetres(x0+dx*d0, y0+dy*d0)
	b := p.r.CellAtMetres(x0+dx*d1, y0+dy*d1)
	cx0, cx1 := min(a.X, b.X), max(a.X, b.X)
	cy0, cy1 := min(a.Y, b.Y), max(a.Y, b.Y)
	top := math.Inf(-1)
	if cx0 < 0 || cy0 < 0 || cx1 >= p.r.W() || cy1 >= p.r.H() {
		top = 0
		cx0, cy0 = max(cx0, 0), max(cy0, 0)
		cx1, cy1 = min(cx1, p.r.W()-1), min(cy1, p.r.H()-1)
		if cx0 > cx1 || cy0 > cy1 {
			return top // wholly outside the raster
		}
	}
	for by := cy0 / blockCells; by <= cy1/blockCells; by++ {
		for bx := cx0 / blockCells; bx <= cx1/blockCells; bx++ {
			if z := p.blk[by*p.bw+bx]; z > top {
				top = z
			}
		}
	}
	return top
}

// Sectors returns the azimuth discretisation of the map.
func (m *Map) Sectors() int { return m.sectors }

// Region returns the raster region the map covers.
func (m *Map) Region() geom.Rect { return m.region }

// cellIndex converts a region-local cell to the dense index.
func (m *Map) cellIndex(c geom.Cell) int {
	return c.Y*m.region.W() + c.X
}

// HorizonTan returns the horizon tangent at the region-local cell for
// the given azimuth (radians clockwise from north).
func (m *Map) HorizonTan(c geom.Cell, azimuthRad float64) float64 {
	s := m.sectorOf(azimuthRad)
	return float64(m.tan[m.cellIndex(c)*m.sectors+s])
}

func (m *Map) sectorOf(azimuthRad float64) int {
	az := math.Mod(azimuthRad, 2*math.Pi)
	if az < 0 {
		az += 2 * math.Pi
	}
	s := int(az / (2 * math.Pi) * float64(m.sectors))
	if s >= m.sectors {
		s = m.sectors - 1
	}
	return s
}

// Shadowed reports whether the beam from a sun at the given azimuth
// and elevation (radians) is blocked at the region-local cell.
func (m *Map) Shadowed(c geom.Cell, azimuthRad, elevRad float64) bool {
	if elevRad <= 0 {
		return true
	}
	return math.Tan(elevRad) < m.HorizonTan(c, azimuthRad)
}

// ShadowedIdx is the allocation-free hot-path variant used by the
// field evaluator: cell given by dense region index, sun by
// precomputed sector and elevation tangent.
func (m *Map) ShadowedIdx(cellIdx, sector int, tanElev float64) bool {
	return tanElev < float64(m.tan[cellIdx*m.sectors+sector])
}

// TanRow returns the per-sector horizon tangents of the dense-index
// cell — the sector-sweep statistics kernel reads one row per cell
// instead of calling ShadowedIdx per timestep. The slice aliases the
// map's storage: read-only.
func (m *Map) TanRow(cellIdx int) []float32 {
	return m.tan[cellIdx*m.sectors : (cellIdx+1)*m.sectors]
}

// SectorOf exposes the sector quantisation for hot-path callers that
// precompute it once per timestep.
func (m *Map) SectorOf(azimuthRad float64) int { return m.sectorOf(azimuthRad) }

// SVF returns the sky view factor of the region-local cell: the
// fraction of the isotropic sky dome left visible by the terrain
// horizon (1 = unobstructed). The plane-of-array model multiplies
// this into the diffuse component.
func (m *Map) SVF(c geom.Cell) float64 { return float64(m.svf[m.cellIndex(c)]) }

// SVFIdx is the dense-index variant of SVF.
func (m *Map) SVFIdx(cellIdx int) float64 { return float64(m.svf[cellIdx]) }

// Snapshot is the serialisable content of a Map — what the persistent
// field-artifact cache stores on disk. All fields are value data; a
// Snapshot round-trips through encoding/gob without loss (float32 bit
// patterns are preserved exactly).
type Snapshot struct {
	Region  geom.Rect
	Sectors int
	Tan     []float32
	SVF     []float32
}

// Snapshot copies the map's contents into a serialisable form.
func (m *Map) Snapshot() Snapshot {
	s := Snapshot{
		Region:  m.region,
		Sectors: m.sectors,
		Tan:     make([]float32, len(m.tan)),
		SVF:     make([]float32, len(m.svf)),
	}
	copy(s.Tan, m.tan)
	copy(s.SVF, m.svf)
	return s
}

// FromSnapshot reconstructs a Map from a Snapshot, validating the
// shape invariants (a truncated or corrupted snapshot is rejected, not
// trusted). The restored map is bit-identical to the one Snapshot was
// taken from. The snapshot does not carry build options, so the caller
// supplies the resolved options the map was built with — typically
// proven by the cache fingerprint the snapshot was stored under — and
// BuildOptions reports them. The claim is trusted: passing options the
// map was not built with produces a map that misreports its
// provenance.
func FromSnapshot(s Snapshot, built Options) (*Map, error) {
	area := s.Region.Area()
	if s.Sectors < 4 || area <= 0 {
		return nil, fmt.Errorf("horizon: invalid snapshot shape: region %v, %d sectors", s.Region, s.Sectors)
	}
	if len(s.Tan) != area*s.Sectors || len(s.SVF) != area {
		return nil, fmt.Errorf("horizon: snapshot arrays %d/%d do not match region %v x %d sectors",
			len(s.Tan), len(s.SVF), s.Region, s.Sectors)
	}
	m := &Map{
		region:  s.Region,
		sectors: s.Sectors,
		opts:    built,
		tan:     make([]float32, len(s.Tan)),
		svf:     make([]float32, len(s.SVF)),
	}
	copy(m.tan, s.Tan)
	copy(m.svf, s.SVF)
	return m, nil
}

// ShadowMask returns the beam-shadow snapshot of the whole region for
// a sun at the given azimuth and elevation (radians): set cells are
// shadowed. This is the instantaneous "evolution of shadows over the
// roof" view the paper's GIS stage computes at 15-minute intervals
// (§IV); the field evaluator uses the O(1) per-cell test instead, but
// the mask form feeds visualisation and debugging.
func (m *Map) ShadowMask(azimuthRad, elevRad float64) *geom.Mask {
	w, h := m.region.W(), m.region.H()
	out := geom.NewMask(w, h)
	if elevRad <= 0 {
		out.Fill(true)
		return out
	}
	sector := m.sectorOf(azimuthRad)
	tanElev := math.Tan(elevRad)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			idx := y*w + x
			if m.ShadowedIdx(idx, sector, tanElev) {
				out.Set(geom.Cell{X: x, Y: y}, true)
			}
		}
	}
	return out
}
