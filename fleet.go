package pvfloor

import (
	"fmt"
	"sort"

	"repro/internal/district"
	"repro/internal/report"
	"repro/internal/timegrid"
)

// This file is the fleet layer shared by RunDistrict and RunCity: the
// plan options both entry points accept, and the one ranking/totals
// pass and text table both results go through (the shared report row
// and totals builders live in district_report.go). A city is a
// district swept tile by tile, so everything downstream of the
// per-roof plans reads the same []*RoofPlan whichever entry point
// produced it — live plans and checkpoint-restored ones alike, through
// RoofPlan.Outcome.

// FleetOptions are the plan-shaping options of a fleet run, declared
// once and embedded in both DistrictConfig and CityConfig. They decide
// what every roof's plan is; the run wiring (tile or source, cache
// handle, context, progress) stays on the embedding config.
type FleetOptions struct {
	// Extract tunes the roof extraction (zero value = defaults).
	Extract district.Options
	// Site carries the geography, climate and module geometry shared
	// by all roofs (zero value = the paper's Turin setup).
	Site district.SiteConfig
	// Modules fixes the module count per roof. 0 auto-sizes each roof
	// from its suitable area (see MaxModules).
	Modules int
	// MaxModules caps the auto-sized count (0 = 32). Ignored when
	// Modules is set.
	MaxModules int
	// Fidelity selects Fast (default) or Full simulation.
	Fidelity Fidelity
	// Grid overrides the calendar implied by Fidelity.
	Grid *timegrid.Grid
	// Optimizer selects the placement-search strategy for every roof.
	Optimizer OptimizerConfig
	// SkipBaseline skips the compact reference placements.
	SkipBaseline bool
	// Economics switches the run into economics-aware fleet ranking:
	// every planned roof is priced through internal/econ over the
	// panel catalog, and ranking/totals follow the configured
	// objective and budget (see EconConfig). The zero value disables
	// the pass — results are then byte-identical to an economics-free
	// run, as is Economics.RankBy == RankByEnergy without a budget. A
	// city run prices the stitched city once, never per tile, so a
	// budget cap spans the whole city.
	Economics EconConfig
	// Concurrency bounds how many roof runs execute simultaneously
	// (0 = one per CPU; the RunBatch pool).
	Concurrency int
	// FieldWorkers bounds each roof's solar-field worker pool
	// (0 = one per CPU). Results are identical for every value.
	FieldWorkers int
}

// Validate reports whether the options can run, without running them.
// RunDistrict and RunCity call it first; request surfaces (pvserve)
// call it to reject a bad request before admitting it.
func (o FleetOptions) Validate() error {
	if o.Modules == 0 && o.MaxModules != 0 && o.MaxModules < 8 {
		return fmt.Errorf("pvfloor: MaxModules %d below one 8-module string (use 0 for the default)", o.MaxModules)
	}
	if o.Modules != 0 && (o.Modules < 8 || o.Modules%8 != 0) {
		return fmt.Errorf("pvfloor: Modules %d not a positive multiple of 8 (use 0 to auto-size)", o.Modules)
	}
	return o.Economics.Validate()
}

// FleetSummary is the ranking and totals of a fleet of roof plans,
// embedded in both DistrictResult and CityResult.
type FleetSummary struct {
	// Ranked indexes the plans best-first: successfully planned roofs
	// by descending proposed net energy, ties by index. With the
	// economics pass enabled, the order follows EconConfig.RankBy and
	// a budget restricts it to the admitted subset.
	Ranked []int
	// TotalProposedMWh / TotalTraditionalMWh / TotalWiringExtraM sum
	// over the successfully planned roofs (the admitted subset when a
	// budget cap is configured).
	TotalProposedMWh    float64
	TotalTraditionalMWh float64
	TotalWiringExtraM   float64
	// Econ summarises the economics pass (nil when disabled).
	Econ *FleetEcon
}

// GainPct returns the aggregate net-energy gain of the proposed
// placements over the traditional baselines, in percent.
func (fs *FleetSummary) GainPct() float64 {
	if fs.TotalTraditionalMWh == 0 {
		return 0
	}
	return (fs.TotalProposedMWh - fs.TotalTraditionalMWh) / fs.TotalTraditionalMWh * 100
}

// rankFleet ranks and totals a fleet of roof plans, running the
// economics pass first when ec enables it. It reads only flattened
// PlanOutcomes (plus the econ rows it writes), so live and
// checkpoint-restored plans rank and total identically, and it is
// idempotent: re-running it on the same plans reproduces the same
// summary.
func rankFleet(plans []*RoofPlan, ec EconConfig) (FleetSummary, error) {
	var fs FleetSummary
	rankBy := RankByEnergy
	if ec.Enabled {
		var err error
		if fs.Econ, err = ec.assessFleet(plans); err != nil {
			return FleetSummary{}, err
		}
		rankBy = fs.Econ.RankBy
	}
	net := make([]float64, len(plans))
	for i, rp := range plans {
		o := rp.Outcome()
		if !o.Planned || (fs.Econ != nil && (rp.Econ == nil || !rp.Econ.Admitted)) {
			continue
		}
		net[i] = o.ProposedMWh
		fs.Ranked = append(fs.Ranked, i)
		fs.TotalProposedMWh += o.ProposedMWh
		fs.TotalTraditionalMWh += o.TraditionalMWh
		fs.TotalWiringExtraM += o.WiringExtraM
		if fs.Econ != nil {
			e := rp.Econ
			fs.Econ.RoofsAdmitted++
			fs.Econ.TotalCapexUSD += e.CapexUSD
			fs.Econ.TotalNPVUSD += e.NPVUSD
			fs.Econ.TotalAnnualRevenueUSD += e.AnnualRevenueUSD
		}
	}
	sort.SliceStable(fs.Ranked, func(a, b int) bool {
		ia, ib := fs.Ranked[a], fs.Ranked[b]
		switch rankBy {
		case RankByNPV:
			na, nb := plans[ia].Econ.NPVUSD, plans[ib].Econ.NPVUSD
			if na != nb {
				return na > nb
			}
		case RankByPayback:
			pa, pb := plans[ia].Econ.PaybackYears, plans[ib].Econ.PaybackYears
			// nil = never pays back = worst.
			switch {
			case pa == nil && pb == nil:
			case pa == nil:
				return false
			case pb == nil:
				return true
			case *pa != *pb:
				return *pa < *pb
			}
		default:
			if net[ia] != net[ib] {
				return net[ia] > net[ib]
			}
		}
		return ia < ib
	})
	return fs, nil
}

// rankOf inverts the ranking: the 1-based rank of each of n plans
// (0 = unranked).
func (fs *FleetSummary) rankOf(n int) []int {
	rank := make([]int, n)
	for i, pi := range fs.Ranked {
		rank[pi] = i + 1
	}
	return rank
}

// fleetTable renders the ranked fleet report: one row per roof
// (planned roofs best-first, then skipped/failed ones), the aggregate
// totals line and, when the economics pass ran, the economics table —
// the district-scale analogue of the paper's Table I.
func fleetTable(plans []*RoofPlan, fs *FleetSummary) string {
	tbl := report.NewTable("Rank", "Roof", "Bldg", "WxL", "Suit", "Slope", "Aspect", "N",
		"Trad MWh", "Prop MWh", "Gain%", "Wire m")
	addRow := func(rank string, rp *RoofPlan) {
		name := fmt.Sprintf("roof%02d", rp.Roof.ID)
		// Segmented buildings read "1.2" (building 1, plane 2) so the
		// two halves of a gable are recognisably one house.
		bldg := fmt.Sprint(rp.Roof.Building)
		if rp.Roof.Segment > 0 {
			bldg = fmt.Sprintf("%d.%d", rp.Roof.Building, rp.Roof.Segment)
		}
		dims := fmt.Sprintf("%dx%d", rp.Roof.Rect.W(), rp.Roof.Rect.H())
		slope := fmt.Sprintf("%.1f", rp.Roof.Plane.SlopeDeg)
		aspect := fmt.Sprintf("%.0f", rp.Roof.Plane.AspectDeg)
		o := rp.Outcome()
		if o.Planned {
			tbl.AddRow(rank, name, bldg, dims, fmt.Sprint(rp.Roof.Suitable.Count()), slope, aspect,
				fmt.Sprint(rp.Modules),
				fmt.Sprintf("%.3f", o.TraditionalMWh),
				fmt.Sprintf("%.3f", o.ProposedMWh),
				fmt.Sprintf("%+.2f", o.GainPct),
				fmt.Sprintf("%.1f", o.WiringExtraM))
			return
		}
		why := rp.Skipped
		if why == "" && o.RunErr != "" {
			why = "failed: " + o.RunErr
		}
		tbl.AddRow(rank, name, bldg, dims, fmt.Sprint(rp.Roof.Suitable.Count()), slope, aspect,
			"-", why)
	}
	rank := fs.rankOf(len(plans))
	for r, pi := range fs.Ranked {
		addRow(fmt.Sprint(r+1), plans[pi])
	}
	for i, rp := range plans {
		if rank[i] == 0 {
			addRow("-", rp)
		}
	}
	out := tbl.String()
	out += fmt.Sprintf("\nDistrict totals: %d/%d roofs planned, traditional %.3f MWh, proposed %.3f MWh (%+.2f%%), extra wiring %.1f m\n",
		len(fs.Ranked), len(plans), fs.TotalTraditionalMWh, fs.TotalProposedMWh,
		fs.GainPct(), fs.TotalWiringExtraM)
	if fs.Econ != nil {
		out += econTable(plans, fs.Ranked, fs.Econ)
	}
	return out
}
