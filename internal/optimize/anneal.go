package optimize

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/objective"
)

// The annealer's geometric cooling schedule runs from StartTemp down
// to EndTemp, in objective units.
const (
	StartTemp = 5.0
	EndTemp   = 0.01
)

// defaultIterations is the move budget when none is given.
const defaultIterations = 20000

// Ptr wraps a literal for the pointer knobs that distinguish "unset"
// from an explicit zero: Annealed{Iterations: optimize.Ptr(0)} runs no
// moves, Problem{WiringWeight: optimize.Ptr(0.0)} disables the wiring
// penalty.
func Ptr[T any](v T) *T { return &v }

// Annealed runs the greedy placer and refines its placement by
// simulated annealing against the shared objective — the natural
// "future work" extension of the paper's greedy heuristic (ablation
// A4 quantifies how much headroom the greedy leaves on the table).
type Annealed struct {
	// Seed fixes the random walk.
	Seed int64
	// Iterations is the move budget (nil = 20000; an explicit 0
	// proposes no moves and returns the greedy placement).
	Iterations *int
}

// Name implements Placer.
func (Annealed) Name() string { return "anneal" }

// Place implements Placer.
func (a Annealed) Place(p Problem) (*floorplan.Placement, error) {
	seed, err := floorplan.Plan(p.Suit, p.Mask, p.Opts)
	if err != nil {
		return nil, err
	}
	obj, err := objective.New(p.Suit, p.Mask, p.objectiveParams())
	if err != nil {
		return nil, err
	}
	return Refine(obj, seed, a.Seed, a.Iterations)
}

// Refine anneals the placement against obj and returns the best
// placement found (never worse than the input under the objective).
// Single-module relocation moves are accepted by the Metropolis rule;
// every move is priced by the objective's O(1) delta evaluation — a
// score-table lookup plus at most two wiring gaps — so iteration
// counts in the hundreds of thousands stay cheap. The objective's
// shape and topology must match the placement's; callers running many
// walks over one roof share its score table via Fork. Iterations nil
// defaults to 20000; an explicit 0 returns the input unchanged.
func Refine(obj *objective.Objective, pl *floorplan.Placement, seed int64, iterations *int) (*floorplan.Placement, error) {
	if obj == nil || pl == nil {
		return nil, fmt.Errorf("optimize: nil objective or placement")
	}
	if len(pl.Rects) == 0 {
		return nil, fmt.Errorf("optimize: empty placement")
	}
	iters := defaultIterations
	if iterations != nil {
		iters = *iterations
	}
	if iters < 0 {
		return nil, fmt.Errorf("optimize: negative iteration count %d", iters)
	}
	if err := obj.Bind(pl.Rects); err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	aw, ah := obj.AnchorDims()
	n := len(pl.Rects)

	cur := obj.Value()
	best := cur
	bestRects := obj.Rects()

	if iters == 0 {
		return materialise(obj, pl, bestRects), nil
	}
	cooling := math.Pow(EndTemp/StartTemp, 1/float64(iters))
	temp := StartTemp

	// One 64-bit draw proposes (module, anchor) via three 21-bit
	// multiply-shift range reductions — a third of the RNG cost of
	// three Intn calls, at a bias below range/2^21 (irrelevant for
	// move proposals). Falls back to Intn on grids too large for the
	// chunks (>2M anchors per axis).
	fastDraw := n < 1<<21 && aw < 1<<21 && ah < 1<<21

	for it := 0; it < iters; it++ {
		var k int
		var anchor geom.Cell
		if fastDraw {
			u := rng.Uint64()
			k = int((u >> 43) * uint64(n) >> 21)
			anchor.X = int(((u >> 22) & 0x1FFFFF) * uint64(aw) >> 21)
			anchor.Y = int(((u >> 1) & 0x1FFFFF) * uint64(ah) >> 21)
		} else {
			k = rng.Intn(n)
			anchor = geom.Cell{X: rng.Intn(aw), Y: rng.Intn(ah)}
		}
		if m, ok := obj.Prepare(k, anchor); ok {
			accept := m.Delta >= 0
			// Moves worse than ~30 temperatures are accepted with
			// probability < 1e-13: skip the exp and the RNG draw.
			// (The walk stays deterministic — the branch depends only
			// on walk state.)
			if !accept && m.Delta > -30*temp {
				accept = rng.Float64() < math.Exp(m.Delta/temp)
			}
			if accept {
				obj.Apply(m)
				cur += m.Delta
				if cur > best {
					best = cur
					bestRects = obj.Rects()
				}
			}
		}
		temp *= cooling
	}
	return materialise(obj, pl, bestRects), nil
}

// materialise builds the result placement from the best rects,
// scoring each module off the objective's table and carrying the
// input's warnings forward.
func materialise(obj *objective.Objective, in *floorplan.Placement, rects []geom.Rect) *floorplan.Placement {
	out := &floorplan.Placement{
		Topology: in.Topology,
		Shape:    in.Shape,
		Rects:    rects,
		Warnings: append([]string(nil), in.Warnings...),
	}
	for _, r := range rects {
		out.SuitabilitySum += obj.ScoreAt(r.Anchor())
	}
	return out
}
