// Package pvfloor is the public facade of the GIS-based PV
// floorplanning library — a from-scratch Go reproduction of
//
//	S. Vinco, L. Bottaccioli, E. Patti, A. Acquaviva, E. Macii,
//	M. Poncino, "GIS-Based Optimal Photovoltaic Panel Floorplanning
//	for Residential Installations", DATE 2018.
//
// The facade wires the full pipeline together: a (synthetic) DSM
// scene with its suitable area, the year-long solar-field simulation
// (sun position → clear sky → weather → decomposition → transposition
// → horizon shadows), the per-cell suitability statistics, the greedy
// sparse floorplanner and the traditional compact baseline, and the
// topology-aware energy evaluation with wiring overhead.
//
//	sc, _ := pvfloor.Roof2()
//	res, _ := pvfloor.Run(pvfloor.Config{Scenario: sc, Modules: 32})
//	fmt.Printf("traditional %.2f MWh, proposed %.2f MWh (%+.1f%%)\n",
//	    res.TraditionalEval.NetMWh(), res.ProposedEval.NetMWh(),
//	    res.ImprovementPct())
//
// # Fidelity
//
// Config.Fidelity trades accuracy for runtime. Fast (the default)
// simulates a reduced calendar — hourly steps, one day per ~monthly
// stride, scaled back to annual totals — over a coarse horizon map:
// well under a second per roof, right for tests, exploration and
// interactive sweeps. Full runs the paper's setup — a full year at
// 15-minute steps over fine horizon maps — and costs minutes per
// roof. Both fidelities run the identical physics pipeline; relative
// placement quality agrees between them, absolute MWh differ by the
// sampling density. Config.Grid overrides the calendar when neither
// preset fits.
//
// # Optimizer strategies
//
// Config.Optimizer selects how the proposed placement is searched
// for: the paper's greedy heuristic (the default), a
// simulated-annealing refinement, a parallel multi-start annealer, or
// the exact branch-and-bound reference on reduced instances. All
// strategies optimise one shared objective with O(1)-per-move
// incremental evaluation (see internal/objective), and all are
// deterministic — multistart returns a bit-identical placement for
// every SearchWorkers value.
//
//	res, _ := pvfloor.Run(pvfloor.Config{
//	    Scenario:  sc,
//	    Modules:   32,
//	    Optimizer: pvfloor.OptimizerConfig{Strategy: pvfloor.StrategyMultiStart, Restarts: 8},
//	})
//
// # Concurrency
//
// The solar-field engine underneath Run is parallel by default and
// deterministic for every worker count (see internal/solar/field).
// Config.Workers bounds its worker pool: 0 uses one worker per CPU,
// 1 forces the serial reference path — useful when embedding runs in
// an outer parallel harness. For simulating fleets of roofs, prefer
// RunBatch (or the cmd/pvbatch tool) over looping on Run: it fans
// whole scenarios out concurrently and amortises both field
// construction and the statistics pass across the config variants of
// each roof (within a batch, the shared engine runs with
// BatchOptions.FieldWorkers rather than per-run Workers — a shared
// field cannot honour conflicting per-run settings).
//
// For long-lived callers — services, pipelines, TUIs — RunBatch and
// RunDistrict accept a context (cancellation stops the fan-out
// between runs; the physics is never interrupted mid-run) and a
// progress callback delivering per-run completions and per-roof
// district milestones as they happen. Both hooks are observational:
// results are bit-identical with or without them. The cmd/pvserve
// tool builds the streaming HTTP front-end on exactly these hooks.
//
// Lower-level building blocks live in internal/ packages; everything
// needed to reproduce the paper's tables and figures is reachable
// from this package, the examples/ programs and the cmd/ tools.
package pvfloor

import (
	"fmt"

	"repro/internal/fieldcache"
	"repro/internal/floorplan"
	"repro/internal/optimize"
	"repro/internal/pvmodel"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/solar/field"
	"repro/internal/timegrid"
	"repro/internal/wiring"
)

// Re-exported scenario constructors (the paper's §V-A roofs plus the
// residential title scenario).
var (
	Roof1       = scenario.Roof1
	Roof2       = scenario.Roof2
	Roof3       = scenario.Roof3
	Residential = scenario.Residential
	AllRoofs    = scenario.All
)

// Fidelity selects the simulation accuracy/runtime trade-off.
type Fidelity int

const (
	// Fast uses the reduced calendar (hourly, ~monthly day stride)
	// and coarse horizon maps: seconds per roof, suitable for tests
	// and exploration.
	Fast Fidelity = iota
	// Full uses the paper's setup: a full year at 15-minute steps
	// and fine horizon maps. Minutes per roof.
	Full
)

// Config parameterises one end-to-end pipeline run.
type Config struct {
	// Scenario is the roof to plan on (required).
	Scenario *scenario.Scenario
	// Label optionally names the run in batch results and reports
	// (RunBatch derives "Roof 2/N=32"-style names when empty).
	Label string
	// Modules is the number of PV modules N (must be a multiple of
	// the paper's string length 8 unless Plan.Topology is set
	// explicitly).
	Modules int
	// Fidelity selects Fast (default) or Full simulation.
	Fidelity Fidelity
	// Grid overrides the calendar implied by Fidelity.
	Grid *timegrid.Grid
	// Suitability tunes the suitability metric (zero value = paper).
	Suitability floorplan.SuitabilityOptions
	// Plan tunes the greedy planner; Shape and Topology are filled
	// from the scenario and Modules when zero.
	Plan floorplan.Options
	// Module overrides the PV module model (default: the paper's
	// Mitsubishi PV-MF165EB3 empirical model).
	Module pvmodel.Module
	// Wiring overrides the cable assumptions (default: the paper's
	// AWG 10 at 7 mΩ/m, 1 $/m).
	Wiring wiring.Spec
	// Optimizer selects the placement-search strategy for the
	// proposed placement (zero value = the paper's greedy heuristic).
	// See OptimizerConfig and the Strategy constants.
	Optimizer OptimizerConfig
	// SkipBaseline skips the compact reference (saves its sweep when
	// only the proposed placement is wanted).
	SkipBaseline bool
	// Workers bounds the solar-field engine's concurrency for this
	// run: 0 = one worker per CPU, 1 = serial reference path.
	// Results are identical for every value (see the package
	// documentation's Concurrency section). Within RunBatch, shared
	// field groups use BatchOptions.FieldWorkers instead.
	Workers int
	// Cache, when non-nil, enables the persistent field-artifact
	// cache (open one with fieldcache.Open): horizon maps and per-cell
	// statistics are stored keyed by a fingerprint of everything they
	// depend on (DSM content, roof region, horizon options, calendar,
	// site, turbidity, weather realisation, statistics config), so
	// repeated runs over unchanged roofs — across processes, not just
	// within one — skip horizon construction and the statistics pass.
	// Cached results are bit-identical to cold computation; corrupt
	// cache files are detected and recomputed. Concurrent runs and
	// processes may share one directory; passing one handle to every
	// run aggregates hit/miss metrics in one place and shares a
	// configured remote blob tier.
	Cache *fieldcache.Cache
}

// effectiveGrid returns the simulation calendar the config implies:
// the explicit Grid when set, otherwise the Fidelity preset.
func (cfg Config) effectiveGrid() *timegrid.Grid {
	if cfg.Grid != nil {
		return cfg.Grid
	}
	if cfg.Fidelity == Full {
		return scenario.FullYearGrid()
	}
	return scenario.FastGrid()
}

// Result carries every artifact of a pipeline run.
type Result struct {
	// Scenario echoes the input.
	Scenario *scenario.Scenario
	// Evaluator is the constructed solar field (reusable for custom
	// evaluations).
	Evaluator *field.Evaluator
	// Stats are the per-cell trace statistics.
	Stats *field.CellStats
	// Suitability is the ranking matrix derived from Stats.
	Suitability *floorplan.Suitability
	// Proposed is the paper's greedy sparse placement.
	Proposed *floorplan.Placement
	// Traditional is the compact baseline (nil with SkipBaseline).
	Traditional *floorplan.Placement
	// ProposedEval / TraditionalEval are the yearly energy reports.
	ProposedEval    floorplan.Evaluation
	TraditionalEval floorplan.Evaluation
}

// ImprovementPct returns the net-energy gain of the proposed
// placement over the traditional baseline, in percent.
func (r *Result) ImprovementPct() float64 {
	t := r.TraditionalEval.NetMWh()
	if t == 0 {
		return 0
	}
	return (r.ProposedEval.NetMWh() - t) / t * 100
}

// TableIRow formats the run as one row of the paper's Table I.
func (r *Result) TableIRow() report.TableIRow {
	return report.TableIRow{
		Roof:           r.Scenario.Name,
		W:              r.Scenario.Suitable.W(),
		L:              r.Scenario.Suitable.H(),
		Ng:             r.Scenario.Ng(),
		N:              r.Proposed.Topology.Modules(),
		TraditionalMWh: r.TraditionalEval.NetMWh(),
		ProposedMWh:    r.ProposedEval.NetMWh(),
		WiringExtraM:   r.ProposedEval.WiringExtraM,
	}
}

// ProposedMap renders the proposed placement as ASCII art in the
// style of the paper's Fig. 7(d-f).
func (r *Result) ProposedMap(maxCols int) string {
	return render.PlacementASCII(r.Scenario.Suitable, r.Proposed, maxCols)
}

// TraditionalMap renders the baseline placement (Fig. 7(a-c)).
func (r *Result) TraditionalMap(maxCols int) string {
	return render.PlacementASCII(r.Scenario.Suitable, r.Traditional, maxCols)
}

// SuitabilityMap renders the suitability matrix as ASCII art in the
// style of the paper's Fig. 6(b).
func (r *Result) SuitabilityMap(maxCols int) string {
	return render.HeatmapASCII(render.Field{
		W: r.Suitability.W, H: r.Suitability.H,
		At: r.Suitability.At,
	}, maxCols)
}

// Run executes the full pipeline.
func Run(cfg Config) (*Result, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("pvfloor: nil scenario")
	}
	if err := cfg.Optimizer.Validate(); err != nil {
		return nil, err
	}
	ev, err := cfg.Scenario.FieldWith(scenario.FieldConfig{
		Grid:    cfg.effectiveGrid(),
		Fast:    cfg.Fidelity != Full,
		Workers: cfg.Workers,
		Cache:   cfg.Cache,
	})
	if err != nil {
		return nil, err
	}
	return RunWithField(cfg, ev)
}

// RunWithField executes the planning and evaluation stages against an
// already-built solar field (letting callers amortise field
// construction across many planning runs).
func RunWithField(cfg Config, ev *field.Evaluator) (*Result, error) {
	if cfg.Scenario == nil || ev == nil {
		return nil, fmt.Errorf("pvfloor: nil scenario or field")
	}
	placer, err := cfg.Optimizer.placer()
	if err != nil {
		return nil, err
	}
	// The statistics depend only on the field, so runs sharing one
	// evaluator (a module-count sweep, a batch group) share the
	// memoized pass instead of recomputing it per variant.
	cs, err := ev.CachedStats()
	if err != nil {
		return nil, err
	}
	suit, err := floorplan.ComputeSuitability(cs, cfg.Suitability)
	if err != nil {
		return nil, err
	}

	planOpts := cfg.Plan
	if planOpts.Shape == (floorplan.ModuleShape{}) {
		planOpts.Shape = cfg.Scenario.Shape
	}
	if planOpts.Topology.Modules() == 0 {
		topo, err := scenario.Topology(cfg.Modules)
		if err != nil {
			return nil, err
		}
		planOpts.Topology = topo
	}
	mod := cfg.Module
	if mod == nil {
		mod = pvmodel.PVMF165EB3()
	}
	spec := cfg.Wiring
	if spec == (wiring.Spec{}) {
		spec = wiring.AWG10(scenario.CellSizeM)
	}

	res := &Result{
		Scenario:    cfg.Scenario,
		Evaluator:   ev,
		Stats:       cs,
		Suitability: suit,
	}
	res.Proposed, err = placer.Place(optimize.Problem{
		Suit:         suit,
		Mask:         cfg.Scenario.Suitable,
		Opts:         planOpts,
		WiringWeight: cfg.Optimizer.wiringWeight(),
		Spec:         spec,
	})
	if err != nil {
		return nil, fmt.Errorf("pvfloor: proposed placement (%s): %w", placer.Name(), err)
	}
	res.ProposedEval, err = floorplan.Evaluate(ev, mod, res.Proposed, spec)
	if err != nil {
		return nil, err
	}
	if !cfg.SkipBaseline {
		res.Traditional, err = floorplan.PlanCompact(suit, cfg.Scenario.Suitable, planOpts)
		if err != nil {
			return nil, fmt.Errorf("pvfloor: traditional placement: %w", err)
		}
		res.TraditionalEval, err = floorplan.Evaluate(ev, mod, res.Traditional, spec)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
