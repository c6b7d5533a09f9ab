package field

import (
	"sync"

	"repro/internal/parallel"
	"repro/internal/solar/clearsky"
	"repro/internal/solar/sunpos"
	"repro/internal/timegrid"
)

// astroStep is the weather-independent astronomy of one calendar step:
// the apparent sun position and the ESRA clear-sky global horizontal
// irradiance. Both are pure functions of (instant, site, turbidity),
// so they are scenario-wide — every cell, every weather realisation
// and every evaluator over the same calendar shares them.
type astroStep struct {
	pos      sunpos.Position
	ghiClear float64
}

// astroKey identifies one memoized astronomy table. Site and monthly
// turbidity pin the physics; the grid fingerprint pins the calendar.
type astroKey struct {
	site sunpos.Site
	tl   [12]float64
	grid string
}

// astroEntry holds one table; the Once makes concurrent first callers
// compute it exactly once while later callers wait for the result.
type astroEntry struct {
	once  sync.Once
	steps []astroStep
}

// astroCacheCap bounds the number of memoized tables. A full-year
// 15-minute table is ≈35k steps × 7 float64 ≈ 2 MB, so the cap keeps
// worst-case cache memory in the tens of megabytes.
const astroCacheCap = 16

var (
	astroMu      sync.Mutex
	astroEntries = map[astroKey]*astroEntry{}
	astroOrder   []astroKey // insertion order, for FIFO eviction
)

// astroTable returns the memoized per-timestep astronomy for the given
// site, turbidity climatology and calendar, computing it on first use.
// The computation is parallelised over timestep chunks; the result is
// identical for every worker count (each index is written exactly
// once, independently of all others).
func astroTable(site sunpos.Site, tl [12]float64, grid *timegrid.Grid, esra *clearsky.ESRA, workers int) []astroStep {
	key := astroKey{site: site, tl: tl, grid: grid.Fingerprint()}
	astroMu.Lock()
	ent, ok := astroEntries[key]
	if !ok {
		ent = &astroEntry{}
		astroEntries[key] = ent
		astroOrder = append(astroOrder, key)
		if len(astroOrder) > astroCacheCap {
			delete(astroEntries, astroOrder[0])
			astroOrder = astroOrder[1:]
		}
	}
	astroMu.Unlock()
	ent.once.Do(func() {
		ent.steps = computeAstro(site, grid, esra, workers)
	})
	return ent.steps
}

// computeAstro evaluates sun position and clear-sky GHI for every
// calendar step.
func computeAstro(site sunpos.Site, grid *timegrid.Grid, esra *clearsky.ESRA, workers int) []astroStep {
	steps := make([]astroStep, grid.Len())
	parallel.Chunks(len(steps), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := grid.At(i)
			pos := sunpos.At(t, site)
			st := astroStep{pos: pos}
			if pos.Up() {
				st.ghiClear = esra.At(pos, int(t.Month())).GlobalHorizontal()
			}
			steps[i] = st
		}
	})
	return steps
}

// ResetAstroCache drops every memoized astronomy table. Evaluators
// already built keep working (they hold no reference to the cache);
// the next field construction recomputes from scratch. Exposed for
// benchmarks and cold-path tests.
func ResetAstroCache() {
	astroMu.Lock()
	astroEntries = map[astroKey]*astroEntry{}
	astroOrder = nil
	astroMu.Unlock()
}

// AstroCacheLen reports how many astronomy tables are currently
// memoized (test and observability hook).
func AstroCacheLen() int {
	astroMu.Lock()
	defer astroMu.Unlock()
	return len(astroEntries)
}
