// Package optimize unifies the placement strategies behind one
// Placer interface over one shared objective (internal/objective):
// the paper's greedy heuristic (§III-C), the simulated-annealing
// refinement (ablation A4), the exact branch-and-bound reference
// (ablation A3), and a parallel multi-start annealer. Callers select
// a strategy and get back a floorplan.Placement; everything downstream
// (energy evaluation, wiring assessment, reports) is
// strategy-agnostic.
//
// Every strategy here is deterministic: the greedy and branch and
// bound by construction, the annealers per seed, and the multi-start
// search for every worker count (restart seeds are derived from the
// base seed by index, and best-of selection scans restarts in index
// order — the same contract as the solar-field engine in
// internal/solar/field).
//
// Each strategy beyond the greedy lives in its own file (anneal.go,
// branchbound.go, multistart.go); the strategies table maps names to
// them.
package optimize

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/objective"
	"repro/internal/wiring"
)

// Problem is the placement instance every Placer solves: the
// suitability field and mask the roof was simulated on, the greedy
// planner options (shape, topology, distance policy), and the wiring
// terms of the shared objective.
type Problem struct {
	// Suit is the per-cell suitability matrix (required).
	Suit *floorplan.Suitability
	// Mask is the suitable-area mask (required).
	Mask *geom.Mask
	// Opts configures the greedy planner and fixes Shape/Topology for
	// every strategy.
	Opts floorplan.Options
	// WiringWeight prices extra cable metres in the refinement
	// objective (nil defaults to objective.DefaultWiringWeight; an
	// explicit 0 disables the penalty).
	WiringWeight *float64
	// Spec prices the wiring (zero value defaults to AWG10 at 0.2 m
	// cells).
	Spec wiring.Spec
}

// objectiveParams resolves the problem's objective parameters.
func (p Problem) objectiveParams() objective.Params {
	w := objective.DefaultWiringWeight
	if p.WiringWeight != nil {
		w = *p.WiringWeight
	}
	return objective.Params{
		Shape:        p.Opts.Shape,
		Topology:     p.Opts.Topology,
		WiringWeight: w,
		Spec:         p.Spec,
	}
}

// Placer is one placement strategy over the shared objective.
type Placer interface {
	// Name identifies the strategy in labels, batch names and logs.
	Name() string
	// Place solves the problem, returning a series-first placement.
	Place(p Problem) (*floorplan.Placement, error)
}

// Greedy is the paper's ranked-candidate heuristic (§III-C) —
// floorplan.Plan behind the Placer interface. The zero value is ready
// to use.
type Greedy struct{}

// Name implements Placer.
func (Greedy) Name() string { return "greedy" }

// Place implements Placer.
func (Greedy) Place(p Problem) (*floorplan.Placement, error) {
	return floorplan.Plan(p.Suit, p.Mask, p.Opts)
}

// strategies is the one strategy-name table: each entry's accepted
// names (canonical first) and the Placer it builds from ByStrategy's
// knobs. ByStrategy and the facade's strategy parser both read it.
var strategies = []struct {
	names []string
	build func(seed int64, iterations *int, restarts, workers, maxNodes int) Placer
}{
	{[]string{"greedy", ""}, func(int64, *int, int, int, int) Placer { return Greedy{} }},
	{[]string{"anneal"}, func(seed int64, iterations *int, _, _, _ int) Placer {
		return Annealed{Seed: seed, Iterations: iterations}
	}},
	{[]string{"multistart"}, func(seed int64, iterations *int, restarts, workers, _ int) Placer {
		return MultiStart{Seed: seed, Iterations: iterations, Restarts: restarts, Workers: workers}
	}},
	{[]string{"bnb", "branchbound"}, func(_ int64, _ *int, _, _, maxNodes int) Placer {
		return BranchBound{MaxNodes: maxNodes}
	}},
}

// strategyIndex finds a strategy name in the table.
func strategyIndex(name string) (int, error) {
	for i, s := range strategies {
		for _, n := range s.names {
			if n == name {
				return i, nil
			}
		}
	}
	return -1, fmt.Errorf("optimize: unknown optimizer strategy %q (want greedy, anneal, multistart or bnb)", name)
}

// StrategyName maps a user-facing strategy name ("greedy" or "",
// "anneal", "multistart", "bnb" or "branchbound") to its canonical
// form.
func StrategyName(name string) (string, error) {
	i, err := strategyIndex(name)
	if err != nil {
		return "", err
	}
	return strategies[i].names[0], nil
}

// ByStrategy returns the Placer for a strategy name (see
// StrategyName). Seed, iterations, restarts and workers parameterise
// the stochastic strategies and are ignored by the deterministic
// ones; maxNodes bounds bnb.
func ByStrategy(strategy string, seed int64, iterations *int, restarts, workers, maxNodes int) (Placer, error) {
	i, err := strategyIndex(strategy)
	if err != nil {
		return nil, err
	}
	return strategies[i].build(seed, iterations, restarts, workers, maxNodes), nil
}

// Value evaluates a placement under the problem's objective — the
// number strategies are compared on.
func Value(p Problem, pl *floorplan.Placement) (float64, error) {
	obj, err := objective.New(p.Suit, p.Mask, p.objectiveParams())
	if err != nil {
		return math.NaN(), err
	}
	return obj.FromScratch(pl.Rects)
}
