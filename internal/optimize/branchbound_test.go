package optimize

import (
	"errors"
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/panel"
)

func gradientSuit(w, h int) *floorplan.Suitability {
	s := &floorplan.Suitability{W: w, H: h, S: make([]float64, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s.S[y*w+x] = float64(x) + 0.1*float64(y)
		}
	}
	return s
}

// exactProblem places n modules of shape on suit/mask as one string.
func exactProblem(suit *floorplan.Suitability, mask *geom.Mask, shape floorplan.ModuleShape, n int) Problem {
	return Problem{Suit: suit, Mask: mask, Opts: floorplan.Options{
		Shape: shape, Topology: panel.Topology{SeriesPerString: n, Strings: 1},
	}}
}

func TestOptimalValidation(t *testing.T) {
	suit := gradientSuit(20, 10)
	mask := fullMask(20, 10)
	shape := floorplan.ModuleShape{W: 4, H: 2}
	if _, err := (BranchBound{}).Place(exactProblem(nil, mask, shape, 1)); err == nil {
		t.Error("nil suitability must error")
	}
	if _, err := (BranchBound{}).Place(exactProblem(suit, mask, floorplan.ModuleShape{}, 1)); err == nil {
		t.Error("invalid shape must error")
	}
	if _, err := (BranchBound{}).Place(exactProblem(suit, mask, shape, 0)); err == nil {
		t.Error("zero modules must error")
	}
}

func TestOptimalSingleModule(t *testing.T) {
	// One module on a gradient: the optimum is the best single
	// candidate — the footprint hugging the top-right corner.
	suit := gradientSuit(20, 10)
	mask := fullMask(20, 10)
	pl, err := BranchBound{}.Place(exactProblem(suit, mask, floorplan.ModuleShape{W: 4, H: 2}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Rects) != 1 {
		t.Fatalf("rects = %v", pl.Rects)
	}
	if a := pl.Rects[0].Anchor(); a != (geom.Cell{X: 16, Y: 8}) {
		t.Errorf("optimal anchor = %v, want (16,8)", a)
	}
}

func TestOptimalMatchesBruteForceTiny(t *testing.T) {
	// 2 modules of 3x2 on an 8x4 grid: small enough to brute-force
	// over all candidate pairs.
	w, h := 8, 4
	suit := &floorplan.Suitability{W: w, H: h, S: make([]float64, w*h)}
	vals := []float64{
		5, 1, 9, 2, 8, 3, 7, 4,
		2, 6, 1, 8, 2, 9, 1, 5,
		7, 3, 8, 1, 6, 2, 9, 3,
		1, 9, 2, 7, 3, 8, 1, 6,
	}
	copy(suit.S, vals)
	mask := fullMask(w, h)
	shape := floorplan.ModuleShape{W: 3, H: 2}

	pl, err := BranchBound{}.Place(exactProblem(suit, mask, shape, 2))
	if err != nil {
		t.Fatal(err)
	}

	// Brute force.
	type cand struct {
		c geom.Cell
		s float64
	}
	var cands []cand
	for y := 0; y+2 <= h; y++ {
		for x := 0; x+3 <= w; x++ {
			r := geom.RectAt(geom.Cell{X: x, Y: y}, 3, 2)
			sum := 0.0
			r.Cells(func(c geom.Cell) bool { sum += suit.At(c); return true })
			cands = append(cands, cand{geom.Cell{X: x, Y: y}, sum / 6})
		}
	}
	best := math.Inf(-1)
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			ri := geom.RectAt(cands[i].c, 3, 2)
			rj := geom.RectAt(cands[j].c, 3, 2)
			if ri.Overlaps(rj) {
				continue
			}
			if s := cands[i].s + cands[j].s; s > best {
				best = s
			}
		}
	}
	if math.Abs(pl.SuitabilitySum-best) > 1e-9 {
		t.Errorf("B&B score %.4f != brute force %.4f", pl.SuitabilitySum, best)
	}
}

func TestOptimalNeverBelowGreedy(t *testing.T) {
	// On any instance the exact optimum must be >= the greedy's
	// suitability sum (same objective, same candidates). This is the
	// optimality-gap measurement of ablation A3.
	suit := gradientSuit(30, 16)
	// Punch holes so greedy has to work around obstacles.
	mask := fullMask(30, 16)
	mask.SetRect(geom.Rect{X0: 22, Y0: 0, X1: 26, Y1: 10}, false)
	mask.SetRect(geom.Rect{X0: 10, Y0: 6, X1: 16, Y1: 9}, false)

	p := exactProblem(suit, mask, floorplan.ModuleShape{W: 4, H: 2}, 3)
	greedy, err := Greedy{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := BranchBound{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if exact.SuitabilitySum < greedy.SuitabilitySum-1e-9 {
		t.Errorf("exact %.4f below greedy %.4f — B&B is broken", exact.SuitabilitySum, greedy.SuitabilitySum)
	}
	gap := (exact.SuitabilitySum - greedy.SuitabilitySum) / exact.SuitabilitySum
	t.Logf("greedy optimality gap: %.2f%%", gap*100)
	if gap > 0.25 {
		t.Errorf("greedy gap %.1f%% implausibly large", gap*100)
	}
}

func TestOptimalNoSpace(t *testing.T) {
	suit := gradientSuit(6, 3)
	mask := fullMask(6, 3)
	if _, err := (BranchBound{}).Place(exactProblem(suit, mask, floorplan.ModuleShape{W: 4, H: 2}, 5)); err == nil {
		t.Error("expected no-space error")
	}
}

func TestOptimalBudgetExhaustion(t *testing.T) {
	suit := gradientSuit(40, 20)
	mask := fullMask(40, 20)
	_, err := BranchBound{MaxNodes: 10}.Place(exactProblem(suit, mask, floorplan.ModuleShape{W: 4, H: 2}, 6))
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("err = %v, want ErrBudgetExhausted", err)
	}
}

func TestOptimalAvoidsMaskedCells(t *testing.T) {
	suit := gradientSuit(16, 6)
	mask := fullMask(16, 6)
	mask.SetRect(geom.Rect{X0: 12, Y0: 0, X1: 16, Y1: 6}, false) // best region blocked
	pl, err := BranchBound{}.Place(exactProblem(suit, mask, floorplan.ModuleShape{W: 4, H: 2}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !pl.WithinMask(mask) {
		t.Errorf("optimal placement %v violates mask", pl.Rects)
	}
}
