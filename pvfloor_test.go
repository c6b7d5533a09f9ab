package pvfloor

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/optimize"
	"repro/internal/scenario"
	"repro/internal/solar/field"
	"repro/internal/solar/horizon"
)

// Shared residential run (cheapest scenario) for facade tests.
var (
	resOnce sync.Once
	resRun  *Result
	resErr  error
)

func residentialRun(t *testing.T) *Result {
	t.Helper()
	resOnce.Do(func() {
		sc, err := Residential()
		if err != nil {
			resErr = err
			return
		}
		resRun, resErr = Run(Config{Scenario: sc, Modules: 8})
	})
	if resErr != nil {
		t.Fatal(resErr)
	}
	return resRun
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil scenario must error")
	}
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Scenario: sc, Modules: 7}); err == nil {
		t.Error("module count not divisible by string length must error")
	}
	if _, err := RunWithField(Config{Scenario: sc}, nil); err == nil {
		t.Error("nil field must error")
	}
}

// TestRunRejectsInvalidOptimizer pins that a bad optimizer config
// fails before any work: no horizon march, no statistics pass.
func TestRunRejectsInvalidOptimizer(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range []OptimizerConfig{
		{Strategy: "tabu"},
		{Strategy: StrategyAnneal, Iterations: -5},
		{Strategy: StrategyMultiStart, Restarts: optimize.MaxRestarts + 1},
		{Strategy: StrategyMultiStart, Restarts: -1},
		{Strategy: StrategyMultiStart, SearchWorkers: -4},
		{Strategy: StrategyAnneal, WiringWeight: -3},
		{Strategy: StrategyAnneal, WiringWeight: math.NaN()},
		{Strategy: StrategyAnneal, WiringWeight: math.Inf(1)},
	} {
		hb, sp := horizon.BuildCount(), field.StatsPassCount()
		if _, err := Run(Config{Scenario: sc, Modules: 8, Optimizer: oc}); err == nil {
			t.Errorf("%+v: Run must error", oc)
		}
		if err := oc.Validate(); err == nil {
			t.Errorf("%+v: Validate must error", oc)
		}
		if err := (FleetOptions{Optimizer: oc}).Validate(); err == nil {
			t.Errorf("%+v: FleetOptions.Validate must error", oc)
		}
		if horizon.BuildCount() != hb || field.StatsPassCount() != sp {
			t.Errorf("%+v: Run did work before rejecting the config", oc)
		}
	}
	for _, oc := range []OptimizerConfig{
		{},
		{Strategy: "branchbound"},
		{Strategy: StrategyMultiStart, Restarts: optimize.MaxRestarts, SearchWorkers: 1},
		{Strategy: StrategyAnneal, Iterations: 10, WiringWeight: 0.5, NoWiringPenalty: true},
	} {
		if err := oc.Validate(); err != nil {
			t.Errorf("%+v: %v", oc, err)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	res := residentialRun(t)
	if res.Proposed == nil || res.Traditional == nil {
		t.Fatal("missing placements")
	}
	if len(res.Proposed.Rects) != 8 {
		t.Errorf("proposed has %d modules", len(res.Proposed.Rects))
	}
	if !res.Proposed.OverlapFree() || !res.Proposed.WithinMask(res.Scenario.Suitable) {
		t.Error("proposed placement infeasible")
	}
	if res.ProposedEval.GrossMWh <= 0 || res.TraditionalEval.GrossMWh <= 0 {
		t.Error("non-positive production")
	}
	// 8 modules × 165 W: hard nameplate ceiling 11.6 MWh/yr; realistic
	// Turin production ≈ 1.3-2 MWh.
	if res.ProposedEval.GrossMWh > 2.5 {
		t.Errorf("implausible production %.2f MWh", res.ProposedEval.GrossMWh)
	}
	if res.ImprovementPct() < -2 {
		t.Errorf("proposed placement should not lose: %+.1f%%", res.ImprovementPct())
	}
}

func TestResultRenders(t *testing.T) {
	res := residentialRun(t)
	prop := res.ProposedMap(80)
	if !strings.ContainsAny(prop, "A") {
		t.Error("proposed map missing modules")
	}
	trad := res.TraditionalMap(80)
	if !strings.ContainsAny(trad, "A") {
		t.Error("traditional map missing modules")
	}
	if heat := res.SuitabilityMap(80); len(heat) == 0 {
		t.Error("empty suitability map")
	}
}

func TestTableIRowFromResult(t *testing.T) {
	res := residentialRun(t)
	row := res.TableIRow()
	if row.Roof != "Residential" || row.N != 8 {
		t.Errorf("row = %+v", row)
	}
	if row.Ng != res.Scenario.Ng() {
		t.Error("row Ng mismatch")
	}
	if row.ProposedMWh <= 0 || row.TraditionalMWh <= 0 {
		t.Error("row energies missing")
	}
}

func TestSkipBaseline(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Scenario: sc, Modules: 8, SkipBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traditional != nil {
		t.Error("baseline should be skipped")
	}
	if res.Proposed == nil || res.ProposedEval.GrossMWh <= 0 {
		t.Error("proposed run incomplete")
	}
}

func TestRunWithFieldReuse(t *testing.T) {
	// Reusing one field across module counts must work and keep the
	// physics identical (same stats pointer semantics not required,
	// but energies must be consistent: more modules, more energy).
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sc.FieldWith(scenario.FieldConfig{Grid: scenario.FastGrid(), Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunWithField(Config{Scenario: sc, Modules: 8}, ev)
	if err != nil {
		t.Fatal(err)
	}
	r16, err := RunWithField(Config{Scenario: sc, Modules: 16}, ev)
	if err != nil {
		t.Fatal(err)
	}
	if !(r16.ProposedEval.GrossMWh > r8.ProposedEval.GrossMWh) {
		t.Error("16 modules must out-produce 8")
	}
}

func TestParseStrategy(t *testing.T) {
	for in, want := range map[string]Strategy{
		"":            StrategyGreedy,
		"greedy":      StrategyGreedy,
		"anneal":      StrategyAnneal,
		"multistart":  StrategyMultiStart,
		"bnb":         StrategyBranchBound,
		"branchbound": StrategyBranchBound,
	} {
		got, err := ParseStrategy(in)
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParseStrategy(%q) = %q, want %q", in, got, want)
		}
	}
	if _, err := ParseStrategy("tabu"); err == nil {
		t.Error("unknown strategy must error")
	}
}

func TestOptimizerStrategySelection(t *testing.T) {
	base := residentialRun(t) // default greedy
	sc := base.Scenario
	// anneal must reuse the cached field (same evaluator) and give a
	// feasible placement at least as good under the shared objective.
	annealed, err := RunWithField(Config{
		Scenario:  sc,
		Modules:   8,
		Optimizer: OptimizerConfig{Strategy: StrategyAnneal, Seed: 2, Iterations: 4000},
	}, base.Evaluator)
	if err != nil {
		t.Fatal(err)
	}
	if !annealed.Proposed.OverlapFree() || !annealed.Proposed.WithinMask(sc.Suitable) {
		t.Error("annealed placement infeasible")
	}
	if len(annealed.Proposed.Rects) != len(base.Proposed.Rects) {
		t.Error("annealed module count differs")
	}
	// An unknown strategy must fail loudly, not fall back to greedy.
	if _, err := RunWithField(Config{
		Scenario:  sc,
		Modules:   8,
		Optimizer: OptimizerConfig{Strategy: Strategy("tabu")},
	}, base.Evaluator); err == nil {
		t.Error("unknown strategy must error")
	}
}

func TestBatchNameCarriesOptimizerStrategy(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scenario: sc, Modules: 8}
	if got := batchName(cfg); got != "Residential/N=8" {
		t.Errorf("default name = %q", got)
	}
	cfg.Optimizer.Strategy = StrategyMultiStart
	if got := batchName(cfg); got != "Residential/N=8/multistart" {
		t.Errorf("multistart name = %q", got)
	}
	cfg.Optimizer.Strategy = StrategyGreedy
	if got := batchName(cfg); got != "Residential/N=8" {
		t.Errorf("explicit greedy name = %q", got)
	}
}
