package pvfloor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/district"
	"repro/internal/dsm"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/objective"
	"repro/internal/scenario"
	"repro/internal/solar/field"
	"repro/internal/solar/horizon"
	"repro/internal/wiring"
)

// TestFieldParallelEquivalenceOnRoofs builds the solar field of two
// paper roofs twice — once on the serial reference path (Workers=1)
// and once on the parallel engine — and requires the per-cell
// statistics to be bit-identical: same NaN mask, same percentiles,
// same means, same sample counts.
func TestFieldParallelEquivalenceOnRoofs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four solar fields")
	}
	for _, mk := range []struct {
		name  string
		build func() (*scenario.Scenario, error)
	}{
		{"Residential", Residential},
		{"Roof2", Roof2},
	} {
		t.Run(mk.name, func(t *testing.T) {
			sc, err := mk.build()
			if err != nil {
				t.Fatal(err)
			}
			grid := scenario.FastGrid()
			serial, err := sc.FieldWith(scenario.FieldConfig{Grid: grid, Fast: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := sc.FieldWith(scenario.FieldConfig{Grid: grid, Fast: true, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			csSerial, err := serial.StatsPercentileSerial(75)
			if err != nil {
				t.Fatal(err)
			}
			csParallel, err := parallel.StatsPercentile(75)
			if err != nil {
				t.Fatal(err)
			}
			if csSerial.Samples == 0 {
				t.Fatal("no samples accumulated")
			}
			if csSerial.Samples != csParallel.Samples {
				t.Fatalf("samples: serial %d vs parallel %d", csSerial.Samples, csParallel.Samples)
			}
			if csSerial.W != csParallel.W || csSerial.H != csParallel.H {
				t.Fatalf("dims differ: %dx%d vs %dx%d",
					csSerial.W, csSerial.H, csParallel.W, csParallel.H)
			}
			diff := 0
			for i := range csSerial.GPct {
				if math.Float64bits(csSerial.GPct[i]) != math.Float64bits(csParallel.GPct[i]) ||
					math.Float64bits(csSerial.GMean[i]) != math.Float64bits(csParallel.GMean[i]) ||
					math.Float64bits(csSerial.TactPct[i]) != math.Float64bits(csParallel.TactPct[i]) {
					diff++
				}
			}
			if diff != 0 {
				t.Errorf("%d of %d cells differ between serial and parallel stats",
					diff, len(csSerial.GPct))
			}
		})
	}
}

// TestSectorKernelEquivalenceOnRoofs pins the sector-sweep statistics
// kernel on the three paper roofs: for percentiles {50, 75, 90} and
// Workers ∈ {1, 2, 8} the pass must be bit-identical across worker
// counts (per-cell accumulation shares nothing), and against the
// retired scalar reference (StatsPercentileScalar) the
// histogram-derived outputs — GPct, TactPct, Samples, the NaN mask —
// must match bit-for-bit, with GMean agreeing to floating-point
// rounding (the kernel sums in its documented sector order instead of
// calendar order).
func TestSectorKernelEquivalenceOnRoofs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds nine solar fields")
	}
	scs, err := scenario.All()
	if err != nil {
		t.Fatal(err)
	}
	grid := scenario.FastGrid()
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			evs := map[int]*field.Evaluator{}
			for _, workers := range []int{1, 2, 8} {
				ev, err := sc.FieldWith(scenario.FieldConfig{Grid: grid, Fast: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				evs[workers] = ev
			}
			for _, pct := range []float64{50, 75, 90} {
				ref, err := evs[1].StatsPercentile(pct)
				if err != nil {
					t.Fatal(err)
				}
				if ref.Samples == 0 {
					t.Fatal("no samples accumulated")
				}
				for _, workers := range []int{2, 8} {
					got, err := evs[workers].StatsPercentile(pct)
					if err != nil {
						t.Fatal(err)
					}
					if got.Samples != ref.Samples || got.W != ref.W || got.H != ref.H {
						t.Fatalf("pct %g workers %d: frame mismatch", pct, workers)
					}
					for i := range ref.GPct {
						if math.Float64bits(got.GPct[i]) != math.Float64bits(ref.GPct[i]) ||
							math.Float64bits(got.GMean[i]) != math.Float64bits(ref.GMean[i]) ||
							math.Float64bits(got.TactPct[i]) != math.Float64bits(ref.TactPct[i]) {
							t.Fatalf("pct %g: workers %d differs from serial at cell %d", pct, workers, i)
						}
					}
				}
				scal, err := evs[1].StatsPercentileScalar(pct)
				if err != nil {
					t.Fatal(err)
				}
				if scal.Samples != ref.Samples {
					t.Fatalf("pct %g: scalar samples %d vs kernel %d", pct, scal.Samples, ref.Samples)
				}
				for i := range ref.GPct {
					if math.Float64bits(scal.GPct[i]) != math.Float64bits(ref.GPct[i]) ||
						math.Float64bits(scal.TactPct[i]) != math.Float64bits(ref.TactPct[i]) {
						t.Fatalf("pct %g: kernel percentiles differ from scalar reference at cell %d", pct, i)
					}
					if math.IsNaN(ref.GMean[i]) != math.IsNaN(scal.GMean[i]) {
						t.Fatalf("pct %g: NaN mask differs from scalar reference at cell %d", pct, i)
					}
					if !math.IsNaN(ref.GMean[i]) {
						rel := math.Abs(ref.GMean[i]-scal.GMean[i]) / math.Max(1, math.Abs(scal.GMean[i]))
						if rel > 1e-12 {
							t.Fatalf("pct %g cell %d: GMean %v vs scalar %v (rel %g)",
								pct, i, ref.GMean[i], scal.GMean[i], rel)
						}
					}
				}
			}
		})
	}
}

// TestRunWorkersKnobEquivalence: a full pipeline run must give the
// same placements and energies for any Workers setting.
func TestRunWorkersKnobEquivalence(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(Config{Scenario: sc, Modules: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(Config{Scenario: sc, Modules: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.ProposedEval.NetMWh() != parallel.ProposedEval.NetMWh() {
		t.Errorf("proposed energy differs: %v vs %v",
			serial.ProposedEval.NetMWh(), parallel.ProposedEval.NetMWh())
	}
	if serial.TraditionalEval.NetMWh() != parallel.TraditionalEval.NetMWh() {
		t.Errorf("baseline energy differs: %v vs %v",
			serial.TraditionalEval.NetMWh(), parallel.TraditionalEval.NetMWh())
	}
	if len(serial.Proposed.Rects) != len(parallel.Proposed.Rects) {
		t.Fatalf("placement sizes differ")
	}
	for i := range serial.Proposed.Rects {
		if serial.Proposed.Rects[i] != parallel.Proposed.Rects[i] {
			t.Errorf("module %d placed differently: %v vs %v",
				i, serial.Proposed.Rects[i], parallel.Proposed.Rects[i])
		}
	}
	// Both runs share one calendar/site/turbidity: the astronomy must
	// have been memoized, not recomputed per run.
	if field.AstroCacheLen() == 0 {
		t.Error("astro cache empty after two runs over the same calendar")
	}
}

// TestObjectiveTraceEquivalenceOnRoofs drives the optimizer layer's
// incremental objective through a long recorded random-move trace on
// two paper roofs and requires, after every applied move, that the
// incrementally maintained value is bit-identical to the from-scratch
// re-evaluation (full footprint re-sum + full wiring estimator). This
// is the contract that lets the annealing strategies trust millions
// of O(1) delta evaluations.
func TestObjectiveTraceEquivalenceOnRoofs(t *testing.T) {
	for _, mk := range []struct {
		name  string
		build func() (*scenario.Scenario, error)
	}{
		{"Roof1", Roof1},
		{"Roof2", Roof2},
	} {
		t.Run(mk.name, func(t *testing.T) {
			sc, err := mk.build()
			if err != nil {
				t.Fatal(err)
			}
			ev, err := sc.FieldWith(scenario.FieldConfig{Grid: scenario.FastGrid(), Fast: true})
			if err != nil {
				t.Fatal(err)
			}
			cs, err := ev.CachedStats()
			if err != nil {
				t.Fatal(err)
			}
			suit, err := floorplan.ComputeSuitability(cs, floorplan.SuitabilityOptions{})
			if err != nil {
				t.Fatal(err)
			}
			topo, err := scenario.Topology(32)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := floorplan.Plan(suit, sc.Suitable, floorplan.Options{Shape: sc.Shape, Topology: topo})
			if err != nil {
				t.Fatal(err)
			}
			obj, err := objective.New(suit, sc.Suitable, objective.Params{
				Shape:        sc.Shape,
				Topology:     topo,
				WiringWeight: objective.DefaultWiringWeight,
				Spec:         wiring.AWG10(scenario.CellSizeM),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := obj.Bind(pl.Rects); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2026))
			aw, ah := obj.AnchorDims()
			const wantMoves = 1200
			applied := 0
			for proposals := 0; applied < wantMoves; proposals++ {
				if proposals > 500*wantMoves {
					t.Fatalf("only %d of %d moves applied after %d proposals", applied, wantMoves, proposals)
				}
				k := rng.Intn(len(pl.Rects))
				anchor := geom.Cell{X: rng.Intn(aw), Y: rng.Intn(ah)}
				if _, ok := obj.DeltaMove(k, anchor); !ok {
					continue
				}
				if err := obj.ApplyMove(k, anchor); err != nil {
					t.Fatal(err)
				}
				applied++
				want, err := obj.FromScratch(obj.Rects())
				if err != nil {
					t.Fatal(err)
				}
				if got := obj.Value(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("move %d: incremental %v (bits %x) != from-scratch %v (bits %x)",
						applied, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		})
	}
}

// TestMultiStartWorkerEquivalenceThroughConfig runs the public
// multistart strategy end to end with SearchWorkers 1, 2 and 8 and
// requires identical proposed placements and energies — the same
// determinism contract the solar-field engine gives for
// Config.Workers.
func TestMultiStartWorkerEquivalenceThroughConfig(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	var ref *Result
	for _, workers := range []int{1, 2, 8} {
		res, err := Run(Config{
			Scenario: sc,
			Modules:  8,
			Optimizer: OptimizerConfig{
				Strategy:      StrategyMultiStart,
				Seed:          5,
				Iterations:    2000,
				Restarts:      6,
				SearchWorkers: workers,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.ProposedEval.NetMWh() != ref.ProposedEval.NetMWh() {
			t.Errorf("SearchWorkers=%d energy %v differs from serial %v",
				workers, res.ProposedEval.NetMWh(), ref.ProposedEval.NetMWh())
		}
		for i := range ref.Proposed.Rects {
			if res.Proposed.Rects[i] != ref.Proposed.Rects[i] {
				t.Errorf("SearchWorkers=%d module %d at %v, serial at %v",
					workers, i, res.Proposed.Rects[i], ref.Proposed.Rects[i])
			}
		}
	}
}

// TestSharedHorizonEquivalenceOnRoofs is the tile-sharing contract on
// the paper roofs: a horizon map built region-wise over the scene and
// sliced to the roof (the district fast path) must yield per-cell
// statistics bit-identical to the per-roof horizon build, for every
// worker count — same NaN mask, same percentiles, same means.
func TestSharedHorizonEquivalenceOnRoofs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several solar fields")
	}
	scs, err := scenario.All()
	if err != nil {
		t.Fatal(err)
	}
	grid := scenario.FastGrid()
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			plain, err := sc.FieldWith(scenario.FieldConfig{Grid: grid, Fast: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := plain.StatsPercentile(75)
			if err != nil {
				t.Fatal(err)
			}
			tile, err := horizon.BuildRegions(sc.Scene.Raster, []geom.Rect{sc.Scene.RoofRect},
				scenario.FastHorizonOptions(), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				shared := *sc
				shared.SharedHorizon = tile
				before := horizon.BuildCount()
				ev, err := shared.FieldWith(scenario.FieldConfig{Grid: grid, Fast: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if d := horizon.BuildCount() - before; d != 0 {
					t.Fatalf("workers %d: shared-horizon evaluator ray-marched %d maps, want 0", workers, d)
				}
				cs, err := ev.StatsPercentile(75)
				if err != nil {
					t.Fatal(err)
				}
				if cs.Samples != ref.Samples || cs.W != ref.W || cs.H != ref.H {
					t.Fatalf("workers %d: frame mismatch", workers)
				}
				for i := range ref.GPct {
					if math.Float64bits(cs.GPct[i]) != math.Float64bits(ref.GPct[i]) ||
						math.Float64bits(cs.GMean[i]) != math.Float64bits(ref.GMean[i]) ||
						math.Float64bits(cs.TactPct[i]) != math.Float64bits(ref.TactPct[i]) {
						t.Fatalf("workers %d: shared-horizon stats differ from per-roof build at cell %d",
							workers, i)
					}
				}
			}
		})
	}
}

// TestDistrictSharedHorizonEquivalence is the district-level contract
// of the shared tile horizon: on the neighborhood tile, the district
// run (one march per tile, sliced per roof) must equal the paper's
// single-roof path — every extracted roof planned on its own via Run,
// with no shared horizon, at the district's final module count — bit
// for bit (placements, energies, ranking, totals) for Concurrency and
// FieldWorkers 1, 2 and 8, while building the horizon exactly once per
// tile.
func TestDistrictSharedHorizonEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three district sweeps plus a per-roof reference")
	}
	tile := loadNeighborhoodTile(t)
	var ref string
	for _, w := range []int{1, 2, 8} {
		before := horizon.BuildCount()
		res, err := RunDistrict(DistrictConfig{
			Tile:         tile,
			FleetOptions: FleetOptions{Concurrency: w, FieldWorkers: w},
		})
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if builds := horizon.BuildCount() - before; builds != 1 {
			t.Errorf("workers %d: %d horizon builds, want exactly 1 per tile", w, builds)
		}
		if ref == "" {
			ref = districtFingerprint(perRoofReference(t, tile, res))
		}
		if fp := districtFingerprint(res); fp != ref {
			t.Fatalf("workers %d: district result differs from the per-roof reference:\n--- ref ---\n%s--- got ---\n%s",
				w, ref, fp)
		}
	}
}

// perRoofReference replans a district on the single-roof path: a
// fresh extraction of the tile, each roof's scenario (no shared
// horizon, so its field marches its own map) through Run at the
// module count the district settled on, then the fleet ranking.
func perRoofReference(t *testing.T, tile *dsm.Raster, dr *DistrictResult) *DistrictResult {
	t.Helper()
	ex, err := district.Extract(tile, nil, district.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scs, err := ex.Scenarios(tile, district.SiteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != len(dr.Plans) {
		t.Fatalf("reference extracted %d roofs, district %d", len(scs), len(dr.Plans))
	}
	ref := &DistrictResult{Extraction: ex, Plans: make([]RoofPlan, len(scs))}
	before, planned := horizon.BuildCount(), 0
	for i, sc := range scs {
		if sc.SharedHorizon != nil {
			t.Fatal("fresh scenario carries a shared horizon")
		}
		rp := &ref.Plans[i]
		rp.Roof, rp.Scenario = ex.Roofs[i], sc
		rp.Modules, rp.Skipped = dr.Plans[i].Modules, dr.Plans[i].Skipped
		if rp.Skipped != "" {
			continue
		}
		planned++
		rp.Run.Result, rp.Run.Err = Run(Config{Scenario: sc, Modules: rp.Modules})
	}
	if builds := horizon.BuildCount() - before; builds != uint64(planned) {
		t.Errorf("per-roof reference: %d horizon builds, want %d (one per roof)", builds, planned)
	}
	if ref.FleetSummary, err = rankFleet(ref.roofPlans(), EconConfig{}); err != nil {
		t.Fatal(err)
	}
	return ref
}
