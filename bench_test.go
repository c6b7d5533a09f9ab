// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V). Each benchmark measures the stage that produces
// the artifact; expensive shared inputs (scenario construction,
// solar-field simulation, per-cell statistics) are built once and
// cached, mirroring how the paper's pipeline separates solar data
// extraction (§IV) from placement (§III).
//
// Shape-level results (who wins, by how much) are emitted as
// b.ReportMetric custom metrics so `go test -bench` output documents
// the reproduction alongside the timings. Absolute MWh values at
// bench fidelity (reduced calendar) differ from EXPERIMENTS.md's
// full-fidelity numbers; the relative gains agree.
package pvfloor

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/district"
	"repro/internal/dsm"
	"repro/internal/econ"
	"repro/internal/fieldcache"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/gis"
	"repro/internal/objective"
	"repro/internal/optimize"
	"repro/internal/panel"
	"repro/internal/pvmodel"
	"repro/internal/render"
	"repro/internal/scenario"
	"repro/internal/solar/field"
	"repro/internal/solar/horizon"
	"repro/internal/wiring"
)

// benchState caches the expensive pipeline inputs per roof.
type benchState struct {
	sc   *scenario.Scenario
	ev   *field.Evaluator
	cs   *field.CellStats
	suit *floorplan.Suitability
}

var (
	benchOnce  sync.Once
	benchRoofs []*benchState
	benchErr   error
)

func roofStates(b *testing.B) []*benchState {
	b.Helper()
	benchOnce.Do(func() {
		scs, err := scenario.All()
		if err != nil {
			benchErr = err
			return
		}
		for _, sc := range scs {
			ev, err := sc.FieldWith(scenario.FieldConfig{Grid: scenario.FastGrid(), Fast: true})
			if err != nil {
				benchErr = err
				return
			}
			cs, err := ev.Stats()
			if err != nil {
				benchErr = err
				return
			}
			suit, err := floorplan.ComputeSuitability(cs, floorplan.SuitabilityOptions{})
			if err != nil {
				benchErr = err
				return
			}
			benchRoofs = append(benchRoofs, &benchState{sc: sc, ev: ev, cs: cs, suit: suit})
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRoofs
}

func planOpts(b *testing.B, st *benchState, n int) floorplan.Options {
	b.Helper()
	topo, err := scenario.Topology(n)
	if err != nil {
		b.Fatal(err)
	}
	return floorplan.Options{Shape: st.sc.Shape, Topology: topo}
}

// BenchmarkTableI regenerates Table I: traditional vs proposed yearly
// production on Roofs 1-3 for N in {16, 32}. The gain percentage is
// reported as a custom metric.
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	mod := pvmodel.PVMF165EB3()
	spec := wiring.AWG10(scenario.CellSizeM)
	for _, st := range roofStates(b) {
		for _, n := range []int{16, 32} {
			b.Run(fmt.Sprintf("%s/N=%d", slugify(st.sc.Name), n), func(b *testing.B) {
				b.ReportAllocs()
				opts := planOpts(b, st, n)
				var gain float64
				for i := 0; i < b.N; i++ {
					sparse, err := floorplan.Plan(st.suit, st.sc.Suitable, opts)
					if err != nil {
						b.Fatal(err)
					}
					compact, err := floorplan.PlanCompact(st.suit, st.sc.Suitable, opts)
					if err != nil {
						b.Fatal(err)
					}
					eS, err := floorplan.Evaluate(st.ev, mod, sparse, spec)
					if err != nil {
						b.Fatal(err)
					}
					eC, err := floorplan.Evaluate(st.ev, mod, compact, spec)
					if err != nil {
						b.Fatal(err)
					}
					gain = (eS.NetMWh() - eC.NetMWh()) / eC.NetMWh() * 100
				}
				b.ReportMetric(gain, "gain%")
			})
		}
	}
}

// BenchmarkFig1Conceptual regenerates the Fig. 1 motivation: sparse
// vs compact on a synthetic gradient surface.
func BenchmarkFig1Conceptual(b *testing.B) {
	b.ReportAllocs()
	const w, h = 72, 32
	suit := &floorplan.Suitability{W: w, H: h, S: make([]float64, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 40.0 + 0.4*float64(x)
			if x > 8 && x < 22 && y > 4 && y < 12 {
				v += 45
			}
			if x > 50 && y > 20 {
				v += 40
			}
			suit.S[y*w+x] = v
		}
	}
	mask := geom.NewMask(w, h)
	mask.Fill(true)
	opts := floorplan.Options{
		Shape:    floorplan.ModuleShape{W: 8, H: 4},
		Topology: panel.Topology{SeriesPerString: 4, Strings: 2},
		Policy:   floorplan.PolicyNone, // conceptual figure: reach both pockets
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		sparse, err := floorplan.Plan(suit, mask, opts)
		if err != nil {
			b.Fatal(err)
		}
		compact, err := floorplan.PlanCompact(suit, mask, opts)
		if err != nil {
			b.Fatal(err)
		}
		ratio = sparse.SuitabilitySum / compact.SuitabilitySum
	}
	b.ReportMetric(ratio, "suit_ratio")
}

// BenchmarkFig2IVCurves regenerates the Fig. 2(a) I-V curves from the
// single-diode model.
func BenchmarkFig2IVCurves(b *testing.B) {
	b.ReportAllocs()
	dio := pvmodel.PVMF165EB3Diode()
	for i := 0; i < b.N; i++ {
		for _, g := range []float64{200, 400, 600, 800, 1000} {
			for _, tc := range []float64{0, 25, 50, 75} {
				curve := dio.IVCurve(g, tc, 60)
				if len(curve) != 60 {
					b.Fatal("bad curve")
				}
			}
		}
	}
}

// BenchmarkFig3ModuleCharacteristics regenerates the Fig. 3 power
// characteristics from the empirical model and reports the paper's 5x
// power swing over G in [200,1000].
func BenchmarkFig3ModuleCharacteristics(b *testing.B) {
	b.ReportAllocs()
	emp := pvmodel.PVMF165EB3()
	var swing float64
	for i := 0; i < b.N; i++ {
		for g := 100.0; g <= 1000; g += 25 {
			for tc := -5.0; tc <= 75; tc += 5 {
				op := emp.MPP(g, tc)
				if op.Power < 0 {
					b.Fatal("negative power")
				}
			}
		}
		swing = emp.MPP(1000, 25).Power / emp.MPP(200, 25).Power
	}
	b.ReportMetric(swing, "power_swing_x")
}

// BenchmarkFig4WiringModel regenerates the Fig. 4 wiring-overhead
// characterisation over displaced module pairs.
func BenchmarkFig4WiringModel(b *testing.B) {
	b.ReportAllocs()
	spec := wiring.AWG10(scenario.CellSizeM)
	shape := floorplan.ModuleShape{W: 8, H: 4}
	var total float64
	for i := 0; i < b.N; i++ {
		total = 0
		for dh := 0; dh <= 30; dh++ {
			for dv := 0; dv <= 20; dv++ {
				a := shape.Rect(geom.Cell{X: 0, Y: 0})
				c := shape.Rect(geom.Cell{X: 8 + dh, Y: dv})
				total += spec.ChainOverheadMeters([]geom.Rect{a, c})
			}
		}
	}
	_ = total
}

// BenchmarkFig6IrradianceMaps regenerates the Fig. 6(b) per-cell p75
// irradiance statistics (the full stats streaming pass per roof).
func BenchmarkFig6IrradianceMaps(b *testing.B) {
	b.ReportAllocs()
	for _, st := range roofStates(b) {
		b.Run(slugify(st.sc.Name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cs, err := st.ev.Stats()
				if err != nil {
					b.Fatal(err)
				}
				if cs.Samples == 0 {
					b.Fatal("no samples")
				}
			}
		})
	}
}

// BenchmarkFig7Placements regenerates the Fig. 7 placement maps
// (N=32 planning plus ASCII rendering).
func BenchmarkFig7Placements(b *testing.B) {
	b.ReportAllocs()
	for _, st := range roofStates(b) {
		b.Run(slugify(st.sc.Name), func(b *testing.B) {
			b.ReportAllocs()
			opts := planOpts(b, st, 32)
			for i := 0; i < b.N; i++ {
				sparse, err := floorplan.Plan(st.suit, st.sc.Suitable, opts)
				if err != nil {
					b.Fatal(err)
				}
				art := render.PlacementASCII(st.sc.Suitable, sparse, 110)
				if len(art) == 0 {
					b.Fatal("empty map")
				}
			}
		})
	}
}

// BenchmarkOverheadAssessment regenerates the §V-C wiring overhead
// numbers and reports the worst-case extra cable metres.
func BenchmarkOverheadAssessment(b *testing.B) {
	b.ReportAllocs()
	spec := wiring.AWG10(scenario.CellSizeM)
	mod := pvmodel.PVMF165EB3()
	st := roofStates(b)[2] // Roof 3 exhibits the largest overhead
	opts := planOpts(b, st, 32)
	var worst float64
	for i := 0; i < b.N; i++ {
		pl, err := floorplan.Plan(st.suit, st.sc.Suitable, opts)
		if err != nil {
			b.Fatal(err)
		}
		e, err := floorplan.Evaluate(st.ev, mod, pl, spec)
		if err != nil {
			b.Fatal(err)
		}
		a, err := spec.Assess(pl.Rects, pl.Topology.SeriesPerString, 4.0, 0.5, e.GrossMWh)
		if err != nil {
			b.Fatal(err)
		}
		worst = a.ExtraCableM
	}
	b.ReportMetric(worst, "extra_cable_m")
}

// BenchmarkPlacementScaling measures the §V-B claim that placement
// time scales with Ng and N (the paper reports <120 s at ≈12k cells
// on a 2017 server; the greedy here runs in milliseconds).
func BenchmarkPlacementScaling(b *testing.B) {
	b.ReportAllocs()
	for _, st := range roofStates(b) {
		for _, n := range []int{8, 16, 32} {
			b.Run(fmt.Sprintf("%s/Ng=%d/N=%d", slugify(st.sc.Name), st.sc.Ng(), n), func(b *testing.B) {
				b.ReportAllocs()
				opts := planOpts(b, st, n)
				for i := 0; i < b.N; i++ {
					if _, err := floorplan.Plan(st.suit, st.sc.Suitable, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationPercentile sweeps the suitability statistic
// (ablation A1) on Roof 2, N=32.
func BenchmarkAblationPercentile(b *testing.B) {
	b.ReportAllocs()
	st := roofStates(b)[1]
	for _, pct := range []float64{50, 75, 90} {
		b.Run(fmt.Sprintf("p%.0f", pct), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cs, err := st.ev.StatsPercentile(pct)
				if err != nil {
					b.Fatal(err)
				}
				suit, err := floorplan.ComputeSuitability(cs, floorplan.SuitabilityOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := floorplan.Plan(suit, st.sc.Suitable, planOpts(b, st, 32)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDistancePolicy sweeps the §III-C distance filter
// (ablation A2) on Roof 2, N=32, reporting the wiring overhead each
// policy produces.
func BenchmarkAblationDistancePolicy(b *testing.B) {
	b.ReportAllocs()
	st := roofStates(b)[1]
	spec := wiring.AWG10(scenario.CellSizeM)
	for _, pol := range []floorplan.DistancePolicy{floorplan.PolicyChain, floorplan.PolicyCentroid, floorplan.PolicyNone} {
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			opts := planOpts(b, st, 32)
			opts.Policy = pol
			var extra float64
			for i := 0; i < b.N; i++ {
				pl, err := floorplan.Plan(st.suit, st.sc.Suitable, opts)
				if err != nil {
					b.Fatal(err)
				}
				extra, err = spec.PlacementOverheadMeters(pl.Rects, pl.Topology.SeriesPerString)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(extra, "wiring_m")
		})
	}
}

// BenchmarkOptimalityGap compares the greedy against the exact
// branch-and-bound placer on reduced instances (ablation A3) and
// reports the suitability-sum gap.
func BenchmarkOptimalityGap(b *testing.B) {
	b.ReportAllocs()
	st := roofStates(b)[1]
	sub := cropSuit(st.suit, 60, 24)
	mask := cropMask(st.sc.Suitable, 60, 24)
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var gap float64
			for i := 0; i < b.N; i++ {
				g, err := floorplan.Plan(sub, mask, floorplan.Options{
					Shape:    st.sc.Shape,
					Topology: panel.Topology{SeriesPerString: n, Strings: 1},
				})
				if err != nil {
					b.Fatal(err)
				}
				o, err := optimize.BranchBound{}.Place(optimize.Problem{Suit: sub, Mask: mask, Opts: floorplan.Options{
					Shape:    st.sc.Shape,
					Topology: panel.Topology{SeriesPerString: n, Strings: 1},
				}})
				if err != nil {
					b.Fatal(err)
				}
				gap = (o.SuitabilitySum - g.SuitabilitySum) / o.SuitabilitySum * 100
			}
			b.ReportMetric(gap, "gap%")
		})
	}
}

// BenchmarkAnnealRefine measures the simulated-annealing refinement
// over the greedy seed (ablation A4) on the incremental objective,
// reporting ns per proposed move alongside the relative improvement.
// The pre-refactor annealer — which re-summed the suitability field
// and re-ran the wiring estimator per move — cost ≈312 ns/move on
// this exact workload (Roof 2, N=32, 10000 iterations). The "warm"
// sub-benchmark shares one precomputed score table across calls via
// Fork (the multi-start / batch usage pattern) and must stay ≥5x
// below that baseline; "cold" additionally pays the one-off table
// construction inside every call.
func BenchmarkAnnealRefine(b *testing.B) {
	b.ReportAllocs()
	st := roofStates(b)[1]
	opts := planOpts(b, st, 32)
	seed, err := floorplan.Plan(st.suit, st.sc.Suitable, opts)
	if err != nil {
		b.Fatal(err)
	}
	const iters = 10000
	params := objective.Params{
		Shape:        opts.Shape,
		Topology:     opts.Topology,
		WiringWeight: objective.DefaultWiringWeight,
		Spec:         wiring.AWG10(scenario.CellSizeM),
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		var improve float64
		start := time.Now()
		for i := 0; i < b.N; i++ {
			obj, err := objective.New(st.suit, st.sc.Suitable, params)
			if err != nil {
				b.Fatal(err)
			}
			refined, err := optimize.Refine(obj, seed, int64(i+1), optimize.Ptr(iters))
			if err != nil {
				b.Fatal(err)
			}
			improve = (refined.SuitabilitySum - seed.SuitabilitySum) / seed.SuitabilitySum * 100
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*iters), "ns/move")
		b.ReportMetric(improve, "suit_gain%")
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		obj, err := objective.New(st.suit, st.sc.Suitable, params)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := optimize.Refine(obj.Fork(), seed, int64(i+1), optimize.Ptr(iters)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*iters), "ns/move")
	})
}

// BenchmarkMultiStart measures the parallel multi-start annealer (8
// restarts over one shared score table) against the single-walk
// refinement budgeted identically, reporting the objective values.
func BenchmarkMultiStart(b *testing.B) {
	b.ReportAllocs()
	st := roofStates(b)[1]
	opts := planOpts(b, st, 32)
	problem := optimize.Problem{Suit: st.suit, Mask: st.sc.Suitable, Opts: opts}
	iters := optimize.Ptr(10000)
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var val float64
			for i := 0; i < b.N; i++ {
				ms := optimize.MultiStart{Seed: 7, Iterations: iters, Restarts: 8, Workers: workers}
				pl, err := ms.Place(problem)
				if err != nil {
					b.Fatal(err)
				}
				v, err := optimize.Value(problem, pl)
				if err != nil {
					b.Fatal(err)
				}
				val = v
			}
			b.ReportMetric(val, "objective")
		})
	}
}

// BenchmarkObjectiveDelta contrasts the two evaluation paths of the
// shared objective on a recorded feasible move set: the incremental
// DeltaMove (table lookup + two wiring gaps) against the from-scratch
// re-evaluation (footprint re-sum + full wiring estimator) every
// search strategy would otherwise pay per candidate.
func BenchmarkObjectiveDelta(b *testing.B) {
	b.ReportAllocs()
	st := roofStates(b)[1]
	opts := planOpts(b, st, 32)
	seed, err := floorplan.Plan(st.suit, st.sc.Suitable, opts)
	if err != nil {
		b.Fatal(err)
	}
	obj, err := objective.New(st.suit, st.sc.Suitable, objective.Params{
		Shape:        opts.Shape,
		Topology:     opts.Topology,
		WiringWeight: objective.DefaultWiringWeight,
		Spec:         wiring.AWG10(scenario.CellSizeM),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := obj.Bind(seed.Rects); err != nil {
		b.Fatal(err)
	}
	// Record a pool of feasible relocations to price repeatedly.
	rng := rand.New(rand.NewSource(17))
	aw, ah := obj.AnchorDims()
	type move struct {
		k      int
		anchor geom.Cell
	}
	var moves []move
	for len(moves) < 256 {
		m := move{k: rng.Intn(len(seed.Rects)), anchor: geom.Cell{X: rng.Intn(aw), Y: rng.Intn(ah)}}
		if _, ok := obj.DeltaMove(m.k, m.anchor); ok {
			moves = append(moves, m)
		}
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		var acc float64
		for i := 0; i < b.N; i++ {
			m := moves[i%len(moves)]
			d, ok := obj.DeltaMove(m.k, m.anchor)
			if !ok {
				b.Fatal("recorded move became infeasible")
			}
			acc += d
		}
		_ = acc
	})
	b.Run("fromscratch", func(b *testing.B) {
		b.ReportAllocs()
		rects := obj.Rects()
		var acc float64
		for i := 0; i < b.N; i++ {
			m := moves[i%len(moves)]
			old := rects[m.k]
			rects[m.k] = opts.Shape.Rect(m.anchor)
			v, err := obj.FromScratch(rects)
			if err != nil {
				b.Fatal(err)
			}
			rects[m.k] = old
			acc += v
		}
		_ = acc
	})
}

func slugify(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			continue
		}
		out = append(out, r)
	}
	return string(out)
}

func cropSuit(s *floorplan.Suitability, w, h int) *floorplan.Suitability {
	out := &floorplan.Suitability{W: w, H: h, S: make([]float64, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.S[y*w+x] = s.At(geom.Cell{X: x, Y: y})
		}
	}
	return out
}

func cropMask(m *geom.Mask, w, h int) *geom.Mask {
	out := geom.NewMask(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Set(geom.Cell{X: x, Y: y}, m.Get(geom.Cell{X: x, Y: y}))
		}
	}
	return out
}

// BenchmarkFieldConstruction measures solar-field construction — the
// stage Run pays before any planning: memoized astronomy, parallel
// sky precompute, horizon map. Sub-benchmarks contrast the serial
// reference path against the parallel engine, and a cold astronomy
// cache against a warm one (the batch/fleet case, where every
// evaluator over the same calendar shares the memoized table). The
// full-year calendar on the residential roof keeps the sky precompute
// — the part concurrency and memoization accelerate — dominant over
// the horizon map.
func BenchmarkFieldConstruction(b *testing.B) {
	b.ReportAllocs()
	sc, err := scenario.Residential()
	if err != nil {
		b.Fatal(err)
	}
	grid := scenario.FullYearGrid()
	build := func(b *testing.B, workers int, cold bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if cold {
				field.ResetAstroCache()
			}
			if _, err := sc.FieldWith(scenario.FieldConfig{Grid: grid, Fast: true, Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial-cold", func(b *testing.B) { build(b, 1, true) })
	b.Run("parallel-cold", func(b *testing.B) { build(b, 0, true) })
	b.Run("parallel-warm", func(b *testing.B) { build(b, 0, false) })
}

// BenchmarkRunBatch measures the batch runner planning all Table I
// roofs in one invocation (two module counts per roof; the variants
// of each roof share one solar field).
func BenchmarkRunBatch(b *testing.B) {
	b.ReportAllocs()
	scs, err := scenario.All()
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []Config
	for _, sc := range scs {
		for _, n := range []int{16, 32} {
			cfgs = append(cfgs, Config{Scenario: sc, Modules: n})
		}
	}
	for i := 0; i < b.N; i++ {
		runs, err := RunBatch(cfgs, BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, br := range runs {
			if br.Err != nil {
				b.Fatal(br.Err)
			}
		}
	}
}

// BenchmarkDistrictSharedHorizon measures the full district sweep over
// the synthetic neighborhood tile under two horizon regimes: the
// shared tile map marched cold (one BuildRegions march sliced per
// roof) and restored from a warm artifact cache (the streamed-service
// steady state, zero marches). The number of
// horizon ray-marches per sweep is reported as a custom metric so the
// build-once contract shows up in the numbers.
func BenchmarkDistrictSharedHorizon(b *testing.B) {
	b.ReportAllocs()
	tile := district.SyntheticNeighborhood()
	run := func(b *testing.B, cfg DistrictConfig) {
		b.Helper()
		before := horizon.BuildCount()
		for i := 0; i < b.N; i++ {
			cfg.Tile = tile
			if _, err := RunDistrict(cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(horizon.BuildCount()-before)/float64(b.N), "horizon-builds/op")
	}
	b.Run("shared-cold", func(b *testing.B) { run(b, DistrictConfig{}) })
	b.Run("shared-warm", func(b *testing.B) {
		cache := openTestCache(b)
		if _, err := RunDistrict(DistrictConfig{Tile: tile, Cache: cache}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, DistrictConfig{Cache: cache})
	})
}

// BenchmarkWarmRemoteCache measures the district sweep served from a
// warm REMOTE blob tier through a cold local cache — the fleet
// scale-out steady state, where a fresh worker's first request pulls
// every artifact from a peer's /v1/blobs mount over HTTP instead of
// ray-marching. Each iteration starts with an empty local directory so
// every artifact crosses the wire; horizon-builds/op stays 0 because
// the remote tier absorbs all misses.
func BenchmarkWarmRemoteCache(b *testing.B) {
	b.ReportAllocs()
	tile := district.SyntheticNeighborhood()
	peer, err := fieldcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := RunDistrict(DistrictConfig{Tile: tile, Cache: peer}); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(blobstore.Handler(peer.Local()))
	defer srv.Close()
	before := horizon.BuildCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		remote, err := blobstore.OpenHTTP(srv.URL, blobstore.HTTPOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cache, err := fieldcache.OpenTiered(fieldcache.Config{Dir: b.TempDir(), Remote: remote})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := RunDistrict(DistrictConfig{Tile: tile, Cache: cache}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(horizon.BuildCount()-before)/float64(b.N), "horizon-builds/op")
}

// BenchmarkHorizonBuild measures the horizon-map precomputation — the
// dominant setup cost of the shadow model (the GIS stage the paper
// runs once per roof) — as the serial march of the roof as a
// one-region tile.
func BenchmarkHorizonBuild(b *testing.B) {
	b.ReportAllocs()
	st := roofStates(b)[0]
	for i := 0; i < b.N; i++ {
		if _, err := horizon.BuildRegions(st.sc.Scene.Raster, []geom.Rect{st.sc.Scene.RoofRect},
			horizon.Options{Sectors: 32, MaxDistanceM: 40}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHorizonBuildFull measures the march at full fidelity — the
// resolved default options, 64 sectors out to 80 m — over a raster
// window with a non-zero origin, the shape every city tile marches:
// Roof 1's scene placed at global cell (1350, 270), marched serially.
// ns/ray divides the time by the cells × sectors marched.
func BenchmarkHorizonBuildFull(b *testing.B) {
	b.ReportAllocs()
	sc := roofStates(b)[0].sc.Scene
	window := sc.Raster.Clone()
	window.SetOrigin(geom.Cell{X: 1350, Y: 270})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := horizon.BuildRegions(window, []geom.Rect{sc.RoofRect}, horizon.Options{}, 1); err != nil {
			b.Fatal(err)
		}
	}
	rays := sc.RoofRect.Area() * horizon.Options{}.Resolved(window.CellSize()).Sectors
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rays), "ns/ray")
}

// BenchmarkEvaluatePlacement measures the topology-aware energy
// evaluation of one N=32 placement (the inner loop of every
// experiment).
func BenchmarkEvaluatePlacement(b *testing.B) {
	b.ReportAllocs()
	st := roofStates(b)[1]
	mod := pvmodel.PVMF165EB3()
	spec := wiring.AWG10(scenario.CellSizeM)
	pl, err := floorplan.Plan(st.suit, st.sc.Suitable, planOpts(b, st, 32))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := floorplan.Evaluate(st.ev, mod, pl, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonthlyProfile measures the monthly-energy extraction.
func BenchmarkMonthlyProfile(b *testing.B) {
	b.ReportAllocs()
	st := roofStates(b)[1]
	mod := pvmodel.PVMF165EB3()
	pl, err := floorplan.Plan(st.suit, st.sc.Suitable, planOpts(b, st, 32))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := floorplan.MonthlyEnergy(st.ev, mod, pl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOrientation compares fixed-orientation against
// free-rotation placement (extension study), reporting the
// suitability gain rotation buys.
func BenchmarkAblationOrientation(b *testing.B) {
	b.ReportAllocs()
	st := roofStates(b)[2]
	for _, rotate := range []bool{false, true} {
		name := "fixed"
		if rotate {
			name = "rotating"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			opts := planOpts(b, st, 32)
			opts.AllowRotation = rotate
			var suitSum float64
			for i := 0; i < b.N; i++ {
				pl, err := floorplan.Plan(st.suit, st.sc.Suitable, opts)
				if err != nil {
					b.Fatal(err)
				}
				suitSum = pl.SuitabilitySum
			}
			b.ReportMetric(suitSum, "suit_sum")
		})
	}
}

// BenchmarkBaselineHierarchy places random, compact and greedy on the
// same roof, reporting each one's suitability total — the sanity
// ordering random <= compact <= greedy.
func BenchmarkBaselineHierarchy(b *testing.B) {
	b.ReportAllocs()
	st := roofStates(b)[1]
	opts := planOpts(b, st, 16)
	b.Run("random", func(b *testing.B) {
		b.ReportAllocs()
		var s float64
		for i := 0; i < b.N; i++ {
			pl, err := floorplan.PlanRandom(st.suit, st.sc.Suitable, opts, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			s = pl.SuitabilitySum
		}
		b.ReportMetric(s, "suit_sum")
	})
	b.Run("compact", func(b *testing.B) {
		b.ReportAllocs()
		var s float64
		for i := 0; i < b.N; i++ {
			pl, err := floorplan.PlanCompact(st.suit, st.sc.Suitable, opts)
			if err != nil {
				b.Fatal(err)
			}
			s = pl.SuitabilitySum
		}
		b.ReportMetric(s, "suit_sum")
	})
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		var s float64
		for i := 0; i < b.N; i++ {
			pl, err := floorplan.Plan(st.suit, st.sc.Suitable, opts)
			if err != nil {
				b.Fatal(err)
			}
			s = pl.SuitabilitySum
		}
		b.ReportMetric(s, "suit_sum")
	})
}

// writeCityASC writes an nx×ny-neighborhood-sized city to disk as an
// ESRI ASCII grid — the out-of-core pipeline's input: the file is
// indexed, never loaded whole. Only the corner block carries the
// synthetic neighborhood; the rest is open terrain, so the planned
// fleet stays constant while the raster area scales and any memory
// growth is attributable to ingestion, not to the retained plans.
func writeCityASC(b *testing.B, nx, ny int) string {
	b.Helper()
	pattern := district.SyntheticNeighborhood()
	city, err := dsm.NewRaster(nx*pattern.W(), ny*pattern.H(), pattern.CellSize())
	if err != nil {
		b.Fatal(err)
	}
	for y := 0; y < pattern.H(); y++ {
		for x := 0; x < pattern.W(); x++ {
			city.Set(geom.Cell{X: x, Y: y}, pattern.At(geom.Cell{X: x, Y: y}))
		}
	}
	path := filepath.Join(b.TempDir(), "city.asc")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := gis.FromRaster(city, 0, 0).WriteAsc(f); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkCityPipeline measures the out-of-core city sweep at 1× and
// 4× the raster area with a FIXED work-tile size, halo, raster-cache
// budget and planned fleet. The perf claim under test: peak heap is a
// function of the tile window (plus the constant fleet), not of city
// size — "peak-MB/op" must stay flat (within noise) as the raster
// quadruples, while a monolithic load would grow linearly (the
// "raster-MB" metric). Peak heap is sampled from a sidecar goroutine
// over the whole timed section and reported relative to the post-GC
// baseline.
func BenchmarkCityPipeline(b *testing.B) {
	for _, scale := range []struct {
		name   string
		nx, ny int
	}{{"1x", 1, 1}, {"4x", 2, 2}, {"16x", 4, 4}} {
		b.Run(scale.name, func(b *testing.B) {
			path := writeCityASC(b, scale.nx, scale.ny)
			const wantRoofs = 4
			rasterMB := float64(scale.nx*160*scale.ny*120) * 8 / 1e6

			// Peak-MB asserts the LIVE set, not GC scheduling: with the
			// default GOGC the collector lets transient per-tile garbage
			// pile up to a multiple of the live heap, which would scale
			// the sampled peak with tile count. An aggressive target
			// keeps sampled heap ≈ live set so the metric isolates what
			// the pipeline actually holds at once.
			oldGC := debug.SetGCPercent(10)
			defer debug.SetGCPercent(oldGC)
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			baseline := ms.HeapAlloc
			peak := baseline
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				var s runtime.MemStats
				for {
					select {
					case <-stop:
						return
					case <-time.After(2 * time.Millisecond):
						runtime.ReadMemStats(&s)
						if s.HeapAlloc > peak {
							peak = s.HeapAlloc
						}
					}
				}
			}()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wr, err := gis.OpenWindowed(path, gis.WindowOptions{CacheBytes: 1 << 20})
				if err != nil {
					b.Fatal(err)
				}
				res, err := RunCity(CityConfig{
					Source:       wr,
					TileCells:    80,
					HaloCells:    40, // fixed window: peak memory must not track city size
					FleetOptions: FleetOptions{Modules: 8, SkipBaseline: true},
				})
				if cerr := wr.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Plans) != wantRoofs {
					b.Fatalf("planned %d roofs, want %d", len(res.Plans), wantRoofs)
				}
			}
			b.StopTimer()
			close(stop)
			<-done
			b.ReportMetric(float64(peak-baseline)/1e6, "peak-MB/op")
			b.ReportMetric(rasterMB, "raster-MB")
		})
	}
}

// BenchmarkEconomics prices the Table I headline configuration.
func BenchmarkEconomics(b *testing.B) {
	b.ReportAllocs()
	var npv float64
	for i := 0; i < b.N; i++ {
		a, err := econ.Assess(7.4, 32, 5.28, 30, econ.Residential2018(), econ.TurinFeedIn2018())
		if err != nil {
			b.Fatal(err)
		}
		npv = a.NPVUSD
	}
	b.ReportMetric(npv, "npv_usd")
}

// BenchmarkDistrictEconRanking measures the fleet economics pass in
// isolation: the district is planned once, then each iteration
// re-prices the fleet over the panel catalog, re-runs the greedy
// budget admission and re-ranks by NPV — the pass is idempotent by
// design, so re-applying it is exactly what -econ adds on top of a
// sweep. It must stay microseconds: economics never touches the
// physics hot path.
func BenchmarkDistrictEconRanking(b *testing.B) {
	res, err := RunDistrict(DistrictConfig{Tile: district.SyntheticNeighborhood()})
	if err != nil {
		b.Fatal(err)
	}
	cfg := EconConfig{Enabled: true, RankBy: RankByNPV, BudgetUSD: 40000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.FleetSummary, err = rankFleet(res.roofPlans(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res.Econ == nil || res.Econ.RoofsAdmitted == 0 {
		b.Fatal("econ pass admitted no roofs")
	}
	b.ReportMetric(float64(res.Econ.RoofsAdmitted), "roofs_admitted")
	b.ReportMetric(res.Econ.TotalNPVUSD, "fleet_npv_usd")
}
