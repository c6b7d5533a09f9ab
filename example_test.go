package pvfloor_test

import (
	"fmt"
	"log"

	pvfloor "repro"
	"repro/internal/scenario"
)

// ExampleRun plans a home rooftop end to end: synthetic DSM, solar
// field, suitability statistics, greedy sparse placement versus the
// compact baseline, and the topology-aware energy evaluation.
func ExampleRun() {
	sc, err := pvfloor.Residential()
	if err != nil {
		log.Fatal(err)
	}
	res, err := pvfloor.Run(pvfloor.Config{Scenario: sc, Modules: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placed %d modules\n", len(res.Proposed.Rects))
	fmt.Printf("feasible: %v\n",
		res.Proposed.OverlapFree() && res.Proposed.WithinMask(sc.Suitable))
	fmt.Printf("produces energy: %v\n", res.ProposedEval.GrossMWh > 0)
	// Output:
	// placed 8 modules
	// feasible: true
	// produces energy: true
}

// ExampleRunWithField amortises the expensive solar-field
// construction across several planning runs — here a module-count
// sweep over one roof.
func ExampleRunWithField() {
	sc, err := pvfloor.Residential()
	if err != nil {
		log.Fatal(err)
	}
	ev, err := sc.FieldWith(scenario.FieldConfig{Grid: scenario.FastGrid(), Fast: true})
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range []int{8, 16} {
		res, err := pvfloor.RunWithField(pvfloor.Config{Scenario: sc, Modules: n}, ev)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("N=%d: placed %d modules\n", n, len(res.Proposed.Rects))
	}
	// Output:
	// N=8: placed 8 modules
	// N=16: placed 16 modules
}

// ExampleRunBatch fans several configuration variants out on the
// concurrent batch runner. Variants that share a scenario and
// calendar share one constructed solar field — note the single field
// build below — and results come back in input order regardless of
// scheduling.
func ExampleRunBatch() {
	sc, err := pvfloor.Residential()
	if err != nil {
		log.Fatal(err)
	}
	runs, err := pvfloor.RunBatch([]pvfloor.Config{
		{Scenario: sc, Modules: 8},
		{Scenario: sc, Modules: 16},
	}, pvfloor.BatchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	built := 0
	for _, br := range runs {
		fmt.Printf("%s: ok=%v\n", br.Name, br.Err == nil)
		if br.FieldBuilt {
			built++
		}
	}
	fmt.Printf("fields built: %d\n", built)
	// Output:
	// Residential/N=8: ok=true
	// Residential/N=16: ok=true
	// fields built: 1
}
