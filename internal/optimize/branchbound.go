package optimize

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/objective"
)

// ErrBudgetExhausted is returned when the branch-and-bound search
// exceeds its node budget before proving optimality.
var ErrBudgetExhausted = errors.New("optimize: node budget exhausted before optimality proof")

// defaultMaxNodes is the branch-and-bound node budget when none is
// given.
const defaultMaxNodes = 5_000_000

// BranchBound is the exact reference placer: depth-first branch and
// bound over the shared score table with a sorted-prefix upper bound,
// maximising the pure suitability sum (wiring-blind, like the greedy
// objective it bounds). The paper notes that exhaustive enumeration
// is infeasible at roof scale (O(N^Ng) — §III-C and §V-B); this
// placer makes the comparison possible on reduced instances,
// quantifying the greedy's optimality gap (ablation A3). Place fails
// with ErrBudgetExhausted rather than returning an unproven answer.
type BranchBound struct {
	// MaxNodes caps the explored search nodes (0 = 5e6).
	MaxNodes int
}

// Name implements Placer.
func (BranchBound) Name() string { return "bnb" }

type candidate struct {
	score float64
	rect  geom.Rect
}

// Place implements Placer.
func (b BranchBound) Place(p Problem) (*floorplan.Placement, error) {
	if p.Suit == nil || p.Mask == nil {
		return nil, fmt.Errorf("optimize: nil suitability or mask")
	}
	shape := p.Opts.Shape
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	n := p.Opts.Topology.Modules()
	if n <= 0 {
		return nil, fmt.Errorf("optimize: non-positive module count %d", n)
	}
	maxNodes := b.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}

	cands, err := enumerate(p.Suit, p.Mask, shape)
	if err != nil {
		return nil, err
	}
	if len(cands) < n {
		return nil, &floorplan.ErrNoSpace{Placed: len(cands), Wanted: n}
	}
	// Sorted descending: prefix sums bound any completion.
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	prefix := make([]float64, len(cands)+1)
	for i, c := range cands {
		prefix[i+1] = prefix[i] + c.score
	}

	s := &search{
		cands:    cands,
		prefix:   prefix,
		maxNodes: maxNodes,
		occupied: geom.NewMask(p.Mask.W(), p.Mask.H()),
		chosen:   make([]int, 0, n),
		best:     math.Inf(-1),
	}
	s.dfs(0, n)
	if s.nodes >= s.maxNodes {
		return nil, ErrBudgetExhausted
	}
	if math.IsInf(s.best, -1) {
		return nil, &floorplan.ErrNoSpace{Placed: 0, Wanted: n}
	}
	// Row-major module order serialises the order-free optimum into
	// series strings with consecutive modules spatially adjacent — as
	// wiring-coherent as an exact search that ignores wiring gets.
	rects := make([]geom.Rect, len(s.bestSet))
	for i, idx := range s.bestSet {
		rects[i] = cands[idx].rect
	}
	sort.Slice(rects, func(i, j int) bool {
		if rects[i].Y0 != rects[j].Y0 {
			return rects[i].Y0 < rects[j].Y0
		}
		return rects[i].X0 < rects[j].X0
	})
	return &floorplan.Placement{
		Topology:       p.Opts.Topology,
		Shape:          shape,
		Rects:          rects,
		SuitabilitySum: s.best,
	}, nil
}

type search struct {
	cands    []candidate
	prefix   []float64
	maxNodes int
	nodes    int
	occupied *geom.Mask
	chosen   []int
	current  float64
	best     float64
	bestSet  []int
}

// bound is the sum of the next need scores from start — an upper
// bound on any completion (-Inf when too few candidates are left).
func (s *search) bound(start, need int) float64 {
	if start+need > len(s.cands) {
		return math.Inf(-1)
	}
	return s.prefix[start+need] - s.prefix[start]
}

// dfs explores combinations in candidate-index order (enforcing
// increasing indices avoids permutation duplicates).
func (s *search) dfs(start, need int) {
	if need == 0 {
		if s.current > s.best {
			s.best = s.current
			s.bestSet = append(s.bestSet[:0], s.chosen...)
		}
		return
	}
	for i := start; i < len(s.cands); i++ {
		if s.nodes >= s.maxNodes {
			return
		}
		if s.current+s.bound(i, need) <= s.best {
			return // even the best completion cannot improve
		}
		c := &s.cands[i]
		if s.occupied.AnySet(c.rect) {
			continue
		}
		s.nodes++
		s.occupied.SetRect(c.rect, true)
		s.chosen = append(s.chosen, i)
		s.current += c.score
		s.dfs(i+1, need-1)
		s.current -= c.score
		s.chosen = s.chosen[:len(s.chosen)-1]
		s.occupied.SetRect(c.rect, false)
	}
}

// enumerate lists all valid anchors with footprint-mean scores off
// the shared precomputed score table, so every search node prices a
// candidate with a table lookup, never a footprint re-sum.
func enumerate(suit *floorplan.Suitability, mask *geom.Mask, shape floorplan.ModuleShape) ([]candidate, error) {
	obj, err := objective.New(suit, mask, objective.Params{Shape: shape})
	if err != nil {
		return nil, err
	}
	var out []candidate
	obj.ForEachAnchor(func(anchor geom.Cell, score float64) {
		out = append(out, candidate{score: score, rect: shape.Rect(anchor)})
	})
	return out, nil
}
