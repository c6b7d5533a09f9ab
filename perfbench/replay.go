package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	pvfloor "repro"
	"repro/internal/district"
	"repro/internal/dsm"
	"repro/internal/econ"
	"repro/internal/fieldcache"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/optimize"
	"repro/internal/pvmodel"
	"repro/internal/scenario"
	"repro/internal/solar/field"
	"repro/internal/solar/horizon"
	"repro/internal/timegrid"
	"repro/internal/wiring"
)

// The stage-by-stage replay: the district pipeline re-driven through
// the public function of each layer, one call at a time, so every
// layer gets its own span, time and allocation figure. The replay
// must reproduce the real run's outputs exactly; the workloads check
// that, so the per-layer figures describe the same program the timed
// run measured.

// stageStats accumulates the replay's counts, computed operation
// volumes and per-layer allocations.
type stageStats struct {
	allocMB       map[string]float64 // by layer (span name prefix)
	placeAttempts int
	placeFits     int
	rays          int64 // horizon cells × sectors actually ray-marched
	cellSteps     int64 // suitable cells × calendar steps of computed stats passes
	roofs         int
	dropped       int
	econCalls     int
}

func newStageStats() *stageStats { return &stageStats{allocMB: map[string]float64{}} }

// stage runs fn as one replay stage: a span plus its allocation.
func (st *stageStats) stage(tr *tracer, name, group string, parent int, fn func() error) error {
	a0 := readRuntime().AllocBytes
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	tr.record(name, group, parent, t0, t1, 0)
	layer, _, _ := strings.Cut(name, ".")
	st.allocMB[layer] += float64(readRuntime().AllocBytes-a0) / (1 << 20)
	return err
}

// replayPlan is the settings one replay shares with the run it mirrors.
type replayPlan struct {
	fast       bool
	cache      *fieldcache.Cache // nil = compute everything
	strategy   string            // "" = greedy
	iterations int               // annealing budget (0 = the annealer's default)
	econ       bool
	tr         *tracer
	parent     int
	group      string
}

func (p replayPlan) grid() *timegrid.Grid {
	if p.fast {
		return scenario.FastGrid()
	}
	return scenario.FullYearGrid()
}

func (p replayPlan) horizonOptions() horizon.Options {
	if p.fast {
		return scenario.FastHorizonOptions()
	}
	return horizon.Options{}
}

// roofOutcome is the replayed result of one roof, comparable with the
// program's report rows.
type roofOutcome struct {
	Rect           geom.Rect
	Ng             int
	Modules        int
	Planned        bool
	ProposedMWh    float64
	TraditionalMWh float64
	WiringExtraM   float64
	Digest         string
	NPVUSD         float64
}

// replayTile mirrors one district sweep of tile: extraction, the
// shared tile horizon, then every roof. Rects are returned offset by
// origin (city cells).
func replayTile(p replayPlan, st *stageStats, tile *dsm.Raster, nodata *geom.Mask, opts district.Options, origin geom.Cell) ([]roofOutcome, error) {
	var ex *district.Extraction
	if err := st.stage(p.tr, "district.extract", p.group, p.parent, func() (err error) {
		ex, err = district.Extract(tile, nodata, opts)
		return err
	}); err != nil {
		return nil, err
	}
	st.roofs += len(ex.Roofs)
	st.dropped += len(ex.Dropped)
	var scs []*scenario.Scenario
	if err := st.stage(p.tr, "district.scenarios", p.group, p.parent, func() (err error) {
		scs, err = ex.Scenarios(tile, district.SiteConfig{})
		return err
	}); err != nil {
		return nil, err
	}
	if len(ex.Roofs) == 0 {
		return nil, nil
	}
	rects := make([]geom.Rect, len(ex.Roofs))
	for i := range ex.Roofs {
		rects[i] = ex.Roofs[i].Rect
	}
	if err := p.sharedHorizon(st, tile, rects, scs); err != nil {
		return nil, err
	}
	out := make([]roofOutcome, 0, len(scs))
	for i, sc := range scs {
		ro := roofOutcome{Ng: sc.Ng()}
		if n := autoModules(sc); n >= 8 {
			outs, err := p.replayRoof(st, sc, []int{n}, true)
			if err != nil {
				return nil, err
			}
			ro = outs[0]
		}
		ro.Rect = offset(ex.Roofs[i].Rect, origin)
		out = append(out, ro)
	}
	return out, nil
}

// sharedHorizon builds (or restores) the tile horizon over rects and
// hands it to every scenario, as the district pipeline does.
func (p replayPlan) sharedHorizon(st *stageStats, r *dsm.Raster, rects []geom.Rect, scs []*scenario.Scenario) error {
	var m *horizon.Map
	var hit bool
	if err := st.stage(p.tr, "horizon.march", p.group, p.parent, func() (err error) {
		m, hit, err = field.TileHorizon(r, rects, p.horizonOptions(), 0, p.cache)
		return err
	}); err != nil {
		return err
	}
	if !hit {
		st.rays += int64(unionCells(rects)) * int64(m.Sectors())
	}
	for _, sc := range scs {
		sc.SharedHorizon = m
	}
	return nil
}

// replayRoof builds the roof's field and plans it for each module
// count in ns, returning one outcome per count. With shrink set
// (district runs, one count), a placement that runs out of space is
// retried with one 8-module string fewer down to 8, as the district
// pipeline does.
func (p replayPlan) replayRoof(st *stageStats, sc *scenario.Scenario, ns []int, shrink bool) ([]roofOutcome, error) {
	var ev *field.Evaluator
	if err := st.stage(p.tr, "field.new", p.group, p.parent, func() (err error) {
		ev, err = sc.FieldWith(scenario.FieldConfig{Grid: p.grid(), Fast: p.fast, Cache: p.cache})
		return err
	}); err != nil {
		return nil, err
	}
	var cs *field.CellStats
	passes := field.StatsPassCount()
	if err := st.stage(p.tr, "field.stats", p.group, p.parent, func() (err error) {
		cs, err = ev.CachedStats()
		return err
	}); err != nil {
		return nil, err
	}
	if field.StatsPassCount() != passes {
		st.cellSteps += int64(sc.Ng()) * int64(p.grid().Len())
	}
	var iterations *int
	if p.iterations != 0 {
		iterations = &p.iterations
	}
	placer, err := optimize.ByStrategy(p.strategy, 0, iterations, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	mod := pvmodel.PVMF165EB3()
	spec := wiring.AWG10(scenario.CellSizeM)
	var outs []roofOutcome
	for _, n := range ns {
		ro := roofOutcome{Ng: sc.Ng(), Digest: pvfloor.GPctDigest(cs)}
		for {
			err := p.plan(st, ev, cs, sc, placer, mod, spec, n, &ro)
			var noSpace *floorplan.ErrNoSpace
			if err == nil {
				break
			}
			if !shrink || !errors.As(err, &noSpace) {
				return nil, err
			}
			if n <= 8 {
				break
			}
			n -= 8
		}
		if p.econ && ro.Planned {
			if err := st.stage(p.tr, "econ.assess", p.group, p.parent, func() error {
				return assessRoof(st, &ro)
			}); err != nil {
				return nil, err
			}
		}
		outs = append(outs, ro)
	}
	return outs, nil
}

// plan runs one planning attempt at n modules: suitability, the
// proposed placement and its evaluation, the compact baseline and its
// evaluation — the stages of pvfloor.RunWithField.
func (p replayPlan) plan(st *stageStats, ev *field.Evaluator, cs *field.CellStats, sc *scenario.Scenario,
	placer optimize.Placer, mod pvmodel.Module, spec wiring.Spec, n int, ro *roofOutcome) error {
	topo, err := scenario.Topology(n)
	if err != nil {
		return err
	}
	opts := floorplan.Options{Shape: sc.Shape, Topology: topo}
	var suit *floorplan.Suitability
	if err := st.stage(p.tr, "floorplan.suitability", p.group, p.parent, func() (err error) {
		suit, err = floorplan.ComputeSuitability(cs, floorplan.SuitabilityOptions{})
		return err
	}); err != nil {
		return err
	}
	var prop, trad *floorplan.Placement
	st.placeAttempts++
	if err := st.stage(p.tr, "optimize.place", p.group, p.parent, func() (err error) {
		prop, err = placer.Place(optimize.Problem{Suit: suit, Mask: sc.Suitable, Opts: opts, Spec: spec})
		return err
	}); err != nil {
		return err
	}
	st.placeFits++
	var pe, te floorplan.Evaluation
	if err := st.stage(p.tr, "floorplan.evaluate", p.group, p.parent, func() (err error) {
		pe, err = floorplan.Evaluate(ev, mod, prop, spec)
		return err
	}); err != nil {
		return err
	}
	if err := st.stage(p.tr, "floorplan.compact", p.group, p.parent, func() (err error) {
		trad, err = floorplan.PlanCompact(suit, sc.Suitable, opts)
		return err
	}); err != nil {
		return err
	}
	if err := st.stage(p.tr, "floorplan.evaluate", p.group, p.parent, func() (err error) {
		te, err = floorplan.Evaluate(ev, mod, trad, spec)
		return err
	}); err != nil {
		return err
	}
	ro.Planned = true
	ro.Modules = n
	ro.ProposedMWh = pe.NetMWh()
	ro.TraditionalMWh = te.NetMWh()
	ro.WiringExtraM = pe.WiringExtraM
	return nil
}

// assessRoof prices the roof over the default panel catalog with
// econ.Assess and keeps the best net present value.
func assessRoof(st *stageStats, ro *roofOutcome) error {
	cost, fin := econ.Residential2018(), econ.TurinFeedIn2018()
	for i, pc := range pvfloor.DefaultPanelCatalog() {
		scale := pc.WattsSTC / 165 // energies are simulated for the paper's 165 W module
		c := cost
		if pc.ModuleUSD > 0 {
			c.ModuleUSD = pc.ModuleUSD
		}
		a, err := econ.Assess(ro.ProposedMWh*scale, ro.Modules, float64(ro.Modules)*pc.WattsSTC/1000, ro.WiringExtraM, c, fin)
		if err != nil {
			return err
		}
		st.econCalls++
		if i == 0 || a.NPVUSD > ro.NPVUSD {
			ro.NPVUSD = a.NPVUSD
		}
	}
	return nil
}

// autoModules sizes a roof's array from its suitable area the way the
// district pipeline does at its default cap: the largest multiple of 8
// whose footprint fits in 80% of the suitable cells, at most 32.
func autoModules(sc *scenario.Scenario) int {
	const maxModules = 32
	area := sc.Shape.W * sc.Shape.H
	if area <= 0 {
		return 0
	}
	n := sc.Ng() * 4 / 5 / area
	n -= n % 8
	if n == 0 && sc.Ng() >= 8*area {
		n = 8
	}
	if n > maxModules {
		n = maxModules
	}
	return n
}

func offset(r geom.Rect, o geom.Cell) geom.Rect {
	return geom.Rect{X0: r.X0 + o.X, Y0: r.Y0 + o.Y, X1: r.X1 + o.X, Y1: r.Y1 + o.Y}
}

// unionCells counts the cells covered by at least one rect.
func unionCells(rects []geom.Rect) int {
	if len(rects) == 0 {
		return 0
	}
	bbox := rects[0]
	for _, r := range rects {
		bbox = bbox.Union(r)
	}
	m := geom.NewMask(bbox.W(), bbox.H())
	for _, r := range rects {
		m.SetRect(geom.Rect{X0: r.X0 - bbox.X0, Y0: r.Y0 - bbox.Y0, X1: r.X1 - bbox.X0, Y1: r.Y1 - bbox.Y0}, true)
	}
	return m.Count()
}

// compareRoofs checks replayed outcomes against the program's report
// rows (matched by city rect): module count, energies and wiring must
// be identical, and the NPV too when the report carries economics.
func compareRoofs(replayed []roofOutcome, rows []pvfloor.RoofReport) error {
	byRect := map[geom.Rect]pvfloor.RoofReport{}
	for _, r := range rows {
		byRect[geom.Rect{X0: r.Rect.X0, Y0: r.Rect.Y0, X1: r.Rect.X1, Y1: r.Rect.Y1}] = r
	}
	if len(replayed) != len(rows) {
		return fmt.Errorf("replay found %d roofs, the run reported %d", len(replayed), len(rows))
	}
	for _, ro := range replayed {
		r, ok := byRect[ro.Rect]
		if !ok {
			return fmt.Errorf("replayed roof %v missing from the run's report", ro.Rect)
		}
		if !ro.Planned {
			if r.ProposedMWh != 0 {
				return fmt.Errorf("roof %v: replay left it unplanned, the run planned it", ro.Rect)
			}
			continue
		}
		if r.Modules != ro.Modules || r.ProposedMWh != ro.ProposedMWh ||
			r.TraditionalMWh != ro.TraditionalMWh || r.WiringExtraM != ro.WiringExtraM {
			return fmt.Errorf("roof %v: replay N=%d %.6f/%.6f MWh %.3f m, run N=%d %.6f/%.6f MWh %.3f m",
				ro.Rect, ro.Modules, ro.ProposedMWh, ro.TraditionalMWh, ro.WiringExtraM,
				r.Modules, r.ProposedMWh, r.TraditionalMWh, r.WiringExtraM)
		}
		if r.Econ != nil && r.Econ.NPVUSD != ro.NPVUSD {
			return fmt.Errorf("roof %v: replay NPV %.2f, run %.2f", ro.Rect, ro.NPVUSD, r.Econ.NPVUSD)
		}
	}
	return nil
}
