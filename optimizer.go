package pvfloor

import (
	"fmt"
	"math"

	"repro/internal/optimize"
)

// Strategy names a placement-search strategy of the optimizer layer
// (internal/optimize). All strategies optimise the same shared
// objective — suitability sum minus a wiring-length penalty — and all
// are deterministic: greedy and bnb by construction, anneal per
// Seed, multistart per Seed for every worker count.
type Strategy string

const (
	// StrategyGreedy is the paper's §III-C ranked-candidate heuristic
	// (the default; an empty Strategy means greedy).
	StrategyGreedy Strategy = "greedy"
	// StrategyAnneal refines the greedy placement by simulated
	// annealing with O(1)-per-move incremental objective evaluation.
	StrategyAnneal Strategy = "anneal"
	// StrategyMultiStart runs Restarts independent annealing walks in
	// parallel over one precomputed score table and keeps the best.
	StrategyMultiStart Strategy = "multistart"
	// StrategyBranchBound is the exact branch-and-bound reference —
	// feasible only on reduced instances (small Modules counts).
	StrategyBranchBound Strategy = "bnb"
)

// ParseStrategy maps a user-facing string ("greedy", "anneal",
// "multistart", "bnb"/"branchbound", or "" for the default) to a
// Strategy.
func ParseStrategy(s string) (Strategy, error) {
	name, err := optimize.StrategyName(s)
	return Strategy(name), err
}

// OptimizerConfig selects and tunes the placement strategy of a run.
// The zero value is the paper's greedy heuristic, preserving the
// pre-optimizer behaviour of Run exactly.
type OptimizerConfig struct {
	// Strategy picks the search ("" = greedy).
	Strategy Strategy
	// Seed fixes the stochastic strategies' random walks.
	Seed int64
	// Iterations is the annealing move budget per walk (0 = the
	// annealer's default, 20000).
	Iterations int
	// Restarts is the multistart walk count K (0 = 8).
	Restarts int
	// SearchWorkers bounds the multistart restart pool: 0 = one
	// worker per CPU, 1 = serial. The result is identical for every
	// value.
	SearchWorkers int
	// WiringWeight overrides the objective's cable price in objective
	// units per metre (0 = the default 0.05; to actually disable the
	// penalty set NoWiringPenalty).
	WiringWeight float64
	// NoWiringPenalty drops the wiring term from the refinement
	// objective entirely.
	NoWiringPenalty bool
}

// Validate reports whether the config can run, without running it:
// a known strategy, non-negative Iterations, Restarts and
// SearchWorkers, at most optimize.MaxRestarts restarts, and a finite,
// non-negative WiringWeight. Run, RunDistrict and RunCity call it
// before any work; request surfaces (pvserve) call it to reject a bad
// request before admitting it.
func (oc OptimizerConfig) Validate() error {
	if _, err := ParseStrategy(string(oc.Strategy)); err != nil {
		return err
	}
	switch {
	case oc.Iterations < 0:
		return fmt.Errorf("pvfloor: negative optimizer Iterations %d", oc.Iterations)
	case oc.Restarts < 0 || oc.Restarts > optimize.MaxRestarts:
		return fmt.Errorf("pvfloor: optimizer Restarts %d outside [0, %d]", oc.Restarts, optimize.MaxRestarts)
	case oc.SearchWorkers < 0:
		return fmt.Errorf("pvfloor: negative optimizer SearchWorkers %d", oc.SearchWorkers)
	case oc.WiringWeight < 0 || math.IsNaN(oc.WiringWeight) || math.IsInf(oc.WiringWeight, 0):
		return fmt.Errorf("pvfloor: optimizer WiringWeight %g must be finite and non-negative", oc.WiringWeight)
	}
	return nil
}

// label returns the strategy tag batch names carry ("" for the
// default greedy).
func (oc OptimizerConfig) label() string {
	if oc.Strategy == "" || oc.Strategy == StrategyGreedy {
		return ""
	}
	return string(oc.Strategy)
}

// placer validates and resolves the config into an internal/optimize
// Placer.
func (oc OptimizerConfig) placer() (optimize.Placer, error) {
	if err := oc.Validate(); err != nil {
		return nil, err
	}
	var iterations *int
	if oc.Iterations != 0 {
		iterations = optimize.Ptr(oc.Iterations)
	}
	return optimize.ByStrategy(string(oc.Strategy), oc.Seed, iterations,
		oc.Restarts, oc.SearchWorkers, 0)
}

// wiringWeight resolves the objective weight override (nil = default).
func (oc OptimizerConfig) wiringWeight() *float64 {
	if oc.NoWiringPenalty {
		return optimize.Ptr(0.0)
	}
	if oc.WiringWeight != 0 {
		return optimize.Ptr(oc.WiringWeight)
	}
	return nil
}
