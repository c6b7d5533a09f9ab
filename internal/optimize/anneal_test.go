package optimize

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/objective"
	"repro/internal/panel"
	"repro/internal/wiring"
)

func planFixture(t *testing.T) (*floorplan.Placement, *floorplan.Suitability, *geom.Mask) {
	t.Helper()
	suit := hotspotSuit(48, 24)
	mask := fullMask(48, 24)
	topo := panel.Topology{SeriesPerString: 2, Strings: 2}
	pl, err := floorplan.Plan(suit, mask, floorplan.Options{
		Shape: floorplan.ModuleShape{W: 8, H: 4}, Topology: topo,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pl, suit, mask
}

// refine anneals pl against the objective of its own shape and
// topology (weight nil = the default wiring weight).
func refine(t *testing.T, pl *floorplan.Placement, suit *floorplan.Suitability, mask *geom.Mask,
	seed int64, iterations *int, weight *float64) (*floorplan.Placement, error) {
	t.Helper()
	p := Problem{Suit: suit, Mask: mask, WiringWeight: weight,
		Opts: floorplan.Options{Shape: pl.Shape, Topology: pl.Topology}}
	obj, err := objective.New(suit, mask, p.objectiveParams())
	if err != nil {
		t.Fatal(err)
	}
	return Refine(obj, pl, seed, iterations)
}

func TestRefineValidation(t *testing.T) {
	pl, suit, mask := planFixture(t)
	obj, err := objective.New(suit, mask, objective.Params{Shape: pl.Shape, Topology: pl.Topology})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Refine(obj, nil, 0, nil); err == nil {
		t.Error("nil placement must error")
	}
	if _, err := Refine(nil, pl, 0, nil); err == nil {
		t.Error("nil objective must error")
	}
	empty := *pl
	empty.Rects = nil
	if _, err := refine(t, &empty, suit, mask, 0, nil, nil); err == nil {
		t.Error("empty placement must error")
	}
}

func TestRefineNeverWorsensObjective(t *testing.T) {
	pl, suit, mask := planFixture(t)
	refined, err := refine(t, pl, suit, mask, 42, Ptr(5000), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := wiring.AWG10(0.2)
	obj := func(p *floorplan.Placement) float64 {
		extra, err := spec.PlacementOverheadMeters(p.Rects, p.Topology.SeriesPerString)
		if err != nil {
			t.Fatal(err)
		}
		return p.SuitabilitySum - 0.05*extra
	}
	if obj(refined) < obj(pl)-1e-9 {
		t.Errorf("refinement worsened objective: %.3f -> %.3f", obj(pl), obj(refined))
	}
}

func TestRefineKeepsFeasibility(t *testing.T) {
	pl, suit, mask := planFixture(t)
	refined, err := refine(t, pl, suit, mask, 7, Ptr(8000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !refined.OverlapFree() {
		t.Error("refined placement overlaps")
	}
	if !refined.WithinMask(mask) {
		t.Error("refined placement escapes mask")
	}
	if len(refined.Rects) != len(pl.Rects) {
		t.Error("refinement changed module count")
	}
}

func TestRefineDeterministicPerSeed(t *testing.T) {
	pl, suit, mask := planFixture(t)
	a, err := refine(t, pl, suit, mask, 5, Ptr(3000), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := refine(t, pl, suit, mask, 5, Ptr(3000), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rects {
		if a.Rects[i] != b.Rects[i] {
			t.Fatalf("same seed diverged at module %d", i)
		}
	}
}

func TestRefineDoesNotMutateInput(t *testing.T) {
	pl, suit, mask := planFixture(t)
	before := append([]geom.Rect(nil), pl.Rects...)
	if _, err := refine(t, pl, suit, mask, 3, Ptr(2000), nil); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if pl.Rects[i] != before[i] {
			t.Fatal("Refine mutated the input placement")
		}
	}
}

func TestRefineEscapesDeliberatelyBadStart(t *testing.T) {
	// Start from a placement parked on the cold background; the
	// annealer must find its way to the hot islands.
	suit := hotspotSuit(48, 24)
	mask := fullMask(48, 24)
	shape := floorplan.ModuleShape{W: 8, H: 4}
	topo := panel.Topology{SeriesPerString: 2, Strings: 1}
	bad := &floorplan.Placement{
		Topology: topo,
		Shape:    shape,
		Rects:    []geom.Rect{shape.Rect(geom.Cell{X: 20, Y: 10}), shape.Rect(geom.Cell{X: 28, Y: 10})},
	}
	for _, r := range bad.Rects {
		var sum float64
		r.Cells(func(c geom.Cell) bool { sum += suit.At(c); return true })
		bad.SuitabilitySum += sum / 32
	}
	refined, err := refine(t, bad, suit, mask, 11, Ptr(20000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if refined.SuitabilitySum < bad.SuitabilitySum*1.5 {
		t.Errorf("annealer failed to escape: %.1f -> %.1f", bad.SuitabilitySum, refined.SuitabilitySum)
	}
}

func TestExplicitZeroDistinguishedFromUnset(t *testing.T) {
	// Regression: plain-value knobs turned an explicit WiringWeight 0
	// into the 0.05 default and Iterations 0 into 20000, so neither
	// could be disabled.
	p := problemFixture()
	if w := p.objectiveParams().WiringWeight; w != 0.05 {
		t.Errorf("unset WiringWeight resolved to %g, want default 0.05", w)
	}
	p.WiringWeight = Ptr(0.0)
	if w := p.objectiveParams().WiringWeight; w != 0 {
		t.Errorf("explicit WiringWeight 0 resolved to %g, want 0 (penalty disabled)", w)
	}
	p.WiringWeight = Ptr(1.5)
	if w := p.objectiveParams().WiringWeight; w != 1.5 {
		t.Errorf("explicit WiringWeight 1.5 resolved to %g", w)
	}

	pl, suit, mask := planFixture(t)
	unset, err := refine(t, pl, suit, mask, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := refine(t, pl, suit, mask, 4, Ptr(20000), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range unset.Rects {
		if unset.Rects[i] != explicit.Rects[i] {
			t.Fatalf("unset Iterations differs from the 20000 default at module %d", i)
		}
	}
}

func TestZeroIterationsReturnsInputUnchanged(t *testing.T) {
	pl, suit, mask := planFixture(t)
	out, err := refine(t, pl, suit, mask, 9, Ptr(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rects) != len(pl.Rects) {
		t.Fatal("module count changed")
	}
	for i := range out.Rects {
		if out.Rects[i] != pl.Rects[i] {
			t.Fatalf("module %d moved with zero iterations", i)
		}
	}
	if _, err := refine(t, pl, suit, mask, 0, Ptr(-1), nil); err == nil {
		t.Error("negative iterations must error")
	}
}

func TestExplicitZeroWiringWeightDisablesPenalty(t *testing.T) {
	// Two hot islands far apart: with the penalty disabled the
	// annealer is free to split the string across both; the pure
	// suitability sum of the refined placement must therefore be at
	// least as good as the penalised run's.
	pl, suit, mask := planFixture(t)
	free, err := refine(t, pl, suit, mask, 1, Ptr(20000), Ptr(0.0))
	if err != nil {
		t.Fatal(err)
	}
	taxed, err := refine(t, pl, suit, mask, 1, Ptr(20000), Ptr(5.0))
	if err != nil {
		t.Fatal(err)
	}
	if free.SuitabilitySum < taxed.SuitabilitySum-1e-9 {
		t.Errorf("penalty-free refinement scored %f below the heavily taxed %f",
			free.SuitabilitySum, taxed.SuitabilitySum)
	}
}
