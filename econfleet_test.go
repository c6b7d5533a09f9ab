package pvfloor

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/district"
	"repro/internal/fieldcache"
	"repro/internal/gis"
)

// runNeighborhoodEcon sweeps the committed neighborhood tile with the
// given economics config, sharing one artifact cache so repeated runs
// inside a test skip the physics.
func runNeighborhoodEcon(t *testing.T, cache *fieldcache.Cache, ec EconConfig) *DistrictResult {
	t.Helper()
	res, err := RunDistrict(DistrictConfig{
		Tile:         loadNeighborhoodTile(t),
		FleetOptions: FleetOptions{Economics: ec},
		Cache:        cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEconRankByEnergyBitIdentical pins the tentpole equivalence
// claim: enabling the economics pass with the (default) energy
// objective reproduces today's ranking and energy totals bit for bit
// — the pass only annotates, it never perturbs.
func TestEconRankByEnergyBitIdentical(t *testing.T) {
	cache := openTestCache(t)
	plain := runNeighborhoodEcon(t, cache, EconConfig{})
	econ := runNeighborhoodEcon(t, cache, EconConfig{Enabled: true, RankBy: RankByEnergy})

	if len(econ.Ranked) != len(plain.Ranked) {
		t.Fatalf("ranked %d roofs with econ, %d without", len(econ.Ranked), len(plain.Ranked))
	}
	for i := range plain.Ranked {
		if econ.Ranked[i] != plain.Ranked[i] {
			t.Errorf("rank %d: econ picked plan %d, plain picked %d", i, econ.Ranked[i], plain.Ranked[i])
		}
	}
	// Bit-identical float totals, not approximately equal: the econ
	// pass re-sums the same outcomes in the same order.
	if econ.TotalProposedMWh != plain.TotalProposedMWh ||
		econ.TotalTraditionalMWh != plain.TotalTraditionalMWh ||
		econ.TotalWiringExtraM != plain.TotalWiringExtraM {
		t.Errorf("totals drifted: econ (%v, %v, %v) vs plain (%v, %v, %v)",
			econ.TotalProposedMWh, econ.TotalTraditionalMWh, econ.TotalWiringExtraM,
			plain.TotalProposedMWh, plain.TotalTraditionalMWh, plain.TotalWiringExtraM)
	}
	if plain.Econ != nil {
		t.Error("economics-free run grew a fleet summary")
	}
	if econ.Econ == nil {
		t.Fatal("econ run has no fleet summary")
	}
	if econ.Econ.RoofsAdmitted != len(econ.Ranked) {
		t.Errorf("unbounded run admitted %d of %d ranked roofs", econ.Econ.RoofsAdmitted, len(econ.Ranked))
	}
	for _, pi := range econ.Ranked {
		e := econ.Plans[pi].Econ
		if e == nil {
			t.Fatalf("planned roof %d has no econ report", econ.Plans[pi].Roof.ID)
		}
		if !e.Admitted {
			t.Errorf("roof %d not admitted without a budget", econ.Plans[pi].Roof.ID)
		}
		if e.CapexUSD <= 0 || e.EnergyMWh <= 0 || e.NameplateKW <= 0 {
			t.Errorf("roof %d degenerate econ report: %+v", econ.Plans[pi].Roof.ID, e)
		}
	}
}

// TestEconRankByNPVOrdering checks the npv objective actually orders
// by descending NPV (ties by plan index).
func TestEconRankByNPVOrdering(t *testing.T) {
	res := runNeighborhoodEcon(t, openTestCache(t), EconConfig{Enabled: true, RankBy: RankByNPV})
	if len(res.Ranked) < 2 {
		t.Fatalf("ranked %d roofs, want >= 2", len(res.Ranked))
	}
	for i := 1; i < len(res.Ranked); i++ {
		prev, cur := res.Plans[res.Ranked[i-1]].Econ, res.Plans[res.Ranked[i]].Econ
		if prev.NPVUSD < cur.NPVUSD {
			t.Errorf("rank %d NPV $%.0f below rank %d NPV $%.0f", i-1, prev.NPVUSD, i, cur.NPVUSD)
		}
		if prev.NPVUSD == cur.NPVUSD && res.Ranked[i-1] > res.Ranked[i] {
			t.Errorf("NPV tie broken against plan order: %d before %d", res.Ranked[i-1], res.Ranked[i])
		}
	}
}

// TestEconBudgetAdmitsFeasibleSubset pins the sequential greedy
// placement: a budget below the fleet's full capex admits a strict,
// budget-feasible, positive-NPV subset and restricts ranking and
// totals to it.
func TestEconBudgetAdmitsFeasibleSubset(t *testing.T) {
	cache := openTestCache(t)
	full := runNeighborhoodEcon(t, cache, EconConfig{Enabled: true, RankBy: RankByNPV})
	if full.Econ.TotalCapexUSD <= 0 {
		t.Fatalf("full fleet capex $%.0f", full.Econ.TotalCapexUSD)
	}

	budget := full.Econ.TotalCapexUSD / 2
	capped := runNeighborhoodEcon(t, cache, EconConfig{
		Enabled: true, RankBy: RankByNPV, BudgetUSD: budget,
	})
	if capped.Econ == nil {
		t.Fatal("capped run has no fleet summary")
	}
	if capped.Econ.BudgetUSD != budget {
		t.Errorf("fleet echoes budget $%.0f, want $%.0f", capped.Econ.BudgetUSD, budget)
	}
	if n := capped.Econ.RoofsAdmitted; n == 0 || n >= full.Econ.RoofsAdmitted {
		t.Fatalf("half budget admitted %d of %d roofs, want a strict non-empty subset",
			n, full.Econ.RoofsAdmitted)
	}
	var capex, npv, proposed float64
	admitted := 0
	for i := range capped.Plans {
		e := capped.Plans[i].Econ
		if e == nil || !e.Admitted {
			continue
		}
		admitted++
		capex += e.CapexUSD
		npv += e.NPVUSD
		proposed += capped.Plans[i].Outcome().ProposedMWh
		if e.NPVUSD <= 0 {
			t.Errorf("admitted roof %d has NPV $%.0f", capped.Plans[i].Roof.ID, e.NPVUSD)
		}
	}
	if capex > budget {
		t.Errorf("admitted capex $%.2f exceeds budget $%.2f", capex, budget)
	}
	if admitted != capped.Econ.RoofsAdmitted || len(capped.Ranked) != admitted {
		t.Errorf("admitted %d, fleet says %d, ranked %d", admitted, capped.Econ.RoofsAdmitted, len(capped.Ranked))
	}
	if capped.Econ.TotalCapexUSD != capex || capped.Econ.TotalNPVUSD != npv {
		t.Errorf("fleet totals (capex $%.2f, NPV $%.2f) don't match admitted sums ($%.2f, $%.2f)",
			capped.Econ.TotalCapexUSD, capped.Econ.TotalNPVUSD, capex, npv)
	}
	if capped.TotalProposedMWh != proposed {
		t.Errorf("energy total %v MWh not restricted to the admitted subset (%v MWh)",
			capped.TotalProposedMWh, proposed)
	}
	for _, pi := range capped.Ranked {
		if !capped.Plans[pi].Econ.Admitted {
			t.Errorf("ranking includes unadmitted plan %d", pi)
		}
	}
}

// TestEconPanelClassSelection checks per-roof class selection: a
// strictly dominant class (twice the energy for a nominal price bump)
// wins everywhere, and a single-class catalog leaves no choice.
func TestEconPanelClassSelection(t *testing.T) {
	cache := openTestCache(t)
	dominant := runNeighborhoodEcon(t, cache, EconConfig{
		Enabled: true,
		Catalog: []PanelClass{
			{Name: "basic-165", WattsSTC: 165, ModuleUSD: 150},
			{Name: "super-330", WattsSTC: 330, ModuleUSD: 151},
		},
	})
	for _, pi := range dominant.Ranked {
		if got := dominant.Plans[pi].Econ.PanelClass; got != "super-330" {
			t.Errorf("roof %d picked %q over a dominant class", dominant.Plans[pi].Roof.ID, got)
		}
	}

	single := runNeighborhoodEcon(t, cache, EconConfig{
		Enabled: true,
		Catalog: []PanelClass{{Name: "only-165", WattsSTC: 165}},
	})
	for _, pi := range single.Ranked {
		e := single.Plans[pi].Econ
		if e.PanelClass != "only-165" {
			t.Errorf("roof %d picked %q from a one-class catalog", single.Plans[pi].Roof.ID, e.PanelClass)
		}
		// ModuleUSD 0 falls back to the cost model's module price.
		if e.CapexUSD <= 0 {
			t.Errorf("roof %d capex $%.2f with default module pricing", single.Plans[pi].Roof.ID, e.CapexUSD)
		}
	}
}

// TestEconConfigValidate exercises the fail-fast validation shared by
// the CLI and serve surfaces.
func TestEconConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		ec   EconConfig
		want string
	}{
		{"disabled invalid ignored", EconConfig{BudgetUSD: -1}, ""},
		{"default ok", EconConfig{Enabled: true}, ""},
		{"bad rank-by", EconConfig{Enabled: true, RankBy: "alphabetical"}, "unknown rank-by"},
		{"negative budget", EconConfig{Enabled: true, BudgetUSD: -5}, "negative budget"},
		{"unnamed class", EconConfig{Enabled: true, Catalog: []PanelClass{{WattsSTC: 165}}}, "unnamed"},
		{"zero watts", EconConfig{Enabled: true, Catalog: []PanelClass{{Name: "x"}}}, "nameplate"},
	}
	for _, tc := range cases {
		err := tc.ec.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestCityEconBudgetSpansCity checks the city pipeline prices the
// stitched fleet once — the budget constrains the whole city, the
// fleet summary reaches the report, and per-roof econ rows survive
// tiling.
func TestCityEconBudgetSpansCity(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	cache := openTestCache(t)
	full, err := RunCity(CityConfig{
		Source:       &gis.RasterSource{Raster: tile},
		TileCells:    80, // 2×2 tile grid
		Cache:        cache,
		FleetOptions: FleetOptions{Economics: EconConfig{Enabled: true, RankBy: RankByNPV}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Econ == nil || full.Econ.RoofsAdmitted != len(full.Ranked) {
		t.Fatalf("city fleet summary %+v, ranked %d", full.Econ, len(full.Ranked))
	}

	budget := full.Econ.TotalCapexUSD / 2
	capped, err := RunCity(CityConfig{
		Source:       &gis.RasterSource{Raster: tile},
		TileCells:    80,
		Cache:        cache,
		FleetOptions: FleetOptions{Economics: EconConfig{Enabled: true, RankBy: RankByNPV, BudgetUSD: budget}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := capped.Econ.RoofsAdmitted; n == 0 || n >= full.Econ.RoofsAdmitted {
		t.Fatalf("city half budget admitted %d of %d roofs", n, full.Econ.RoofsAdmitted)
	}
	if capped.Econ.TotalCapexUSD > budget {
		t.Errorf("city admitted capex $%.2f exceeds budget $%.2f", capped.Econ.TotalCapexUSD, budget)
	}

	rep := NewCityReport(capped)
	if rep.Totals.Econ == nil || rep.Totals.Econ.RoofsAdmitted != capped.Econ.RoofsAdmitted {
		t.Fatalf("city report totals lost the fleet summary: %+v", rep.Totals.Econ)
	}
	withEcon := 0
	for _, r := range rep.Roofs {
		if r.Econ != nil {
			withEcon++
		}
	}
	if withEcon == 0 {
		t.Error("no city report roof carries an econ row")
	}
}

// TestReportZeroValueRoundTrip is the omitempty bugfix regression
// (satellite: legit-zero floats vanished from reports): a planned
// roof at exactly 0% gain and a tile whose ground sits at exactly 0 m
// must keep their keys, while unplanned roofs and skipped tiles still
// omit them.
func TestReportZeroValueRoundTrip(t *testing.T) {
	zero := 0.0
	rr, err := json.Marshal(RoofReport{ID: 1, GainPct: &zero})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rr), `"gain_pct":0`) {
		t.Errorf("zero gain_pct dropped: %s", rr)
	}
	var back RoofReport
	if err := json.Unmarshal(rr, &back); err != nil {
		t.Fatal(err)
	}
	if back.GainPct == nil || *back.GainPct != 0 {
		t.Errorf("gain_pct did not round-trip: %+v", back.GainPct)
	}

	if out, _ := json.Marshal(RoofReport{ID: 2, Skipped: "too-small"}); strings.Contains(string(out), "gain_pct") {
		t.Errorf("unplanned roof serialised gain_pct: %s", out)
	}

	tr, err := json.Marshal(CityTileReport{Index: 0, GroundZ: &zero})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tr), `"ground_z":0`) {
		t.Errorf("zero ground_z dropped: %s", tr)
	}
	if out, _ := json.Marshal(CityTileReport{Index: 1, Skipped: "empty"}); strings.Contains(string(out), "ground_z") {
		t.Errorf("skipped tile serialised ground_z: %s", out)
	}
}

// TestDistrictReportEconSurfaces checks the district report carries
// the econ rows end to end and marshals cleanly (the Inf-payback
// regression would poison the whole report otherwise).
func TestDistrictReportEconSurfaces(t *testing.T) {
	res := runNeighborhoodEcon(t, openTestCache(t), EconConfig{Enabled: true, RankBy: RankByNPV})
	rep := NewDistrictReport(res)
	if rep.Totals.Econ == nil {
		t.Fatal("report totals lost the fleet summary")
	}
	if rep.Totals.Econ.RankBy != string(RankByNPV) {
		t.Errorf("report rank_by %q", rep.Totals.Econ.RankBy)
	}
	for _, r := range rep.Roofs {
		if r.Rank > 0 && r.Econ == nil {
			t.Errorf("ranked roof %d has no econ row", r.ID)
		}
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("district report with econ does not marshal: %v", err)
	}
}

// TestEconTableRendering smoke-tests the human-readable table: the
// econ section appends to the district table with the fleet summary.
func TestEconTableRendering(t *testing.T) {
	res := runNeighborhoodEcon(t, openTestCache(t), EconConfig{Enabled: true, BudgetUSD: 1e9})
	out := DistrictTable(res)
	for _, want := range []string{"NPV/$", "Fleet economics", "budget $1000000000", "roofs admitted"} {
		if !strings.Contains(out, want) {
			t.Errorf("district table missing %q:\n%s", want, out)
		}
	}
}

// TestSyntheticNeighborhoodStable guards the fixtures the econ tests
// lean on: the synthetic tile must keep extracting plannable roofs.
func TestSyntheticNeighborhoodStable(t *testing.T) {
	res, err := RunDistrict(DistrictConfig{Tile: district.SyntheticNeighborhood()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) == 0 {
		t.Fatal("synthetic neighborhood planned no roofs")
	}
}
