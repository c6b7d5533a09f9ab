package pvfloor

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/solar/field"
)

// The golden regression corpus pins the end-to-end pipeline down to
// the float bit pattern: placements, per-cell irradiance percentiles
// (as a digest) and every energy figure for Run, RunBatch and
// RunDistrict. Any drift — an algorithm change, a reordered reduction,
// a new default — fails these tests until the goldens are explicitly
// regenerated and the diff reviewed:
//
//	go test . -run Golden -update
//
// JSON serialisation uses Go's shortest-round-trip float formatting,
// so the files are human-diffable yet exact. The committed values are
// produced on amd64; architectures that fuse multiply-adds may differ
// in the last bit.
var updateGolden = flag.Bool("update", false, "rewrite the golden corpus instead of comparing")

// gpctDigest is the shared statistics digest (see district_report.go);
// the alias keeps the golden helpers terse.
func gpctDigest(cs *field.CellStats) string { return GPctDigest(cs) }

// goldenEval is the exact energy outcome of one placement.
type goldenEval struct {
	GrossMWh      float64 `json:"gross_mwh"`
	NetMWh        float64 `json:"net_mwh"`
	WiringExtraM  float64 `json:"wiring_extra_m"`
	WiringLossMWh float64 `json:"wiring_loss_mwh"`
}

// goldenRun is the pinned outcome of one pipeline run.
type goldenRun struct {
	Name               string     `json:"name"`
	Modules            int        `json:"modules"`
	GPctDigest         string     `json:"gpct_digest"`
	ProposedAnchors    [][2]int   `json:"proposed_anchors"`
	TraditionalAnchors [][2]int   `json:"traditional_anchors,omitempty"`
	Proposed           goldenEval `json:"proposed"`
	Traditional        goldenEval `json:"traditional"`
	GainPct            float64    `json:"gain_pct"`
}

func anchorsOf(res *Result) (prop, trad [][2]int) {
	for _, c := range res.Proposed.Anchors() {
		prop = append(prop, [2]int{c.X, c.Y})
	}
	if res.Traditional != nil {
		for _, c := range res.Traditional.Anchors() {
			trad = append(trad, [2]int{c.X, c.Y})
		}
	}
	return prop, trad
}

func goldenFromResult(name string, modules int, res *Result) goldenRun {
	prop, trad := anchorsOf(res)
	return goldenRun{
		Name:            name,
		Modules:         modules,
		GPctDigest:      gpctDigest(res.Stats),
		ProposedAnchors: prop, TraditionalAnchors: trad,
		Proposed: goldenEval{
			GrossMWh:     res.ProposedEval.GrossMWh,
			NetMWh:       res.ProposedEval.NetMWh(),
			WiringExtraM: res.ProposedEval.WiringExtraM, WiringLossMWh: res.ProposedEval.WiringLossMWh,
		},
		Traditional: goldenEval{
			GrossMWh:     res.TraditionalEval.GrossMWh,
			NetMWh:       res.TraditionalEval.NetMWh(),
			WiringExtraM: res.TraditionalEval.WiringExtraM, WiringLossMWh: res.TraditionalEval.WiringLossMWh,
		},
		GainPct: res.ImprovementPct(),
	}
}

// checkGolden marshals got and compares it byte-for-byte against the
// committed golden file (or rewrites the file with -update).
func checkGolden(t *testing.T, name string, got any) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden %s rewritten (%d bytes)", name, len(data))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s: %v (run `go test . -run Golden -update` to create it)", name, err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("%s drifted from the golden corpus.\n--- golden ---\n%s--- got ---\n%s"+
			"review the diff; if intentional, regenerate with `go test . -run Golden -update`",
			name, want, data)
	}
}

// TestGoldenRun pins the single-roof facade on the residential title
// scenario.
func TestGoldenRun(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Scenario: sc, Modules: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "run_residential_n8.json", goldenFromResult(sc.Name, 8, res))
}

// TestGoldenRunBatch pins the batch engine over a module-count and
// strategy sweep of the residential roof (one shared field).
func TestGoldenRunBatch(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for _, n := range []int{8, 16} {
		for _, strat := range []Strategy{StrategyGreedy, StrategyMultiStart} {
			cfgs = append(cfgs, Config{
				Scenario: sc, Modules: n,
				Optimizer: OptimizerConfig{Strategy: strat, Seed: 1},
			})
		}
	}
	runs, err := RunBatch(cfgs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var golden []goldenRun
	for _, br := range runs {
		if br.Err != nil {
			t.Fatalf("%s: %v", br.Name, br.Err)
		}
		golden = append(golden, goldenFromResult(br.Name, br.Config.Modules, br.Result))
	}
	checkGolden(t, "runbatch_residential.json", golden)
}

// goldenDistrict is the pinned outcome of a district sweep.
type goldenDistrict struct {
	GroundZ float64             `json:"ground_z"`
	Ranked  []int               `json:"ranked"`
	Roofs   []goldenDistrictRun `json:"roofs"`
}

type goldenDistrictRun struct {
	ID        int     `json:"id"`
	Building  int     `json:"building"`
	Segment   int     `json:"segment"`
	Rect      [4]int  `json:"rect"`
	Cells     int     `json:"cells"`
	SlopeDeg  float64 `json:"slope_deg"`
	AspectDeg float64 `json:"aspect_deg"`
	Golden    goldenRun
}

// TestGoldenRunDistrict pins the whole district pipeline on the
// committed neighborhood tile.
func TestGoldenRunDistrict(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	res, err := RunDistrict(DistrictConfig{Tile: tile})
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenDistrict{GroundZ: res.Extraction.GroundZ, Ranked: res.Ranked}
	for i := range res.Plans {
		rp := &res.Plans[i]
		if !rp.Planned() {
			t.Fatalf("roof%d unplanned: skipped=%q err=%v", rp.Roof.ID, rp.Skipped, rp.Run.Err)
		}
		golden.Roofs = append(golden.Roofs, goldenDistrictRun{
			ID: rp.Roof.ID, Building: rp.Roof.Building, Segment: rp.Roof.Segment,
			Rect:  [4]int{rp.Roof.Rect.X0, rp.Roof.Rect.Y0, rp.Roof.Rect.X1, rp.Roof.Rect.Y1},
			Cells: rp.Roof.Cells, SlopeDeg: rp.Roof.Plane.SlopeDeg, AspectDeg: rp.Roof.Plane.AspectDeg,
			Golden: goldenFromResult(rp.Run.Name, rp.Modules, rp.Run.Result),
		})
	}
	checkGolden(t, "rundistrict_neighborhood.json", golden)
}

// TestGoldenRunDistrictGabled pins the multi-plane pipeline on the
// committed gabled tile: both gabled houses must appear as two ranked
// segments with opposite aspects, sharing a Building number, each
// planned as its own scenario.
func TestGoldenRunDistrictGabled(t *testing.T) {
	tile := loadGabledTile(t)
	res, err := RunDistrict(DistrictConfig{Tile: tile})
	if err != nil {
		t.Fatal(err)
	}
	segmented := 0
	for i := range res.Plans {
		if res.Plans[i].Roof.Segment > 0 {
			segmented++
		}
	}
	if segmented < 4 {
		t.Fatalf("gabled tile planned %d segment roofs, want >= 4 (two per gabled house)", segmented)
	}
	golden := goldenDistrict{GroundZ: res.Extraction.GroundZ, Ranked: res.Ranked}
	for i := range res.Plans {
		rp := &res.Plans[i]
		if !rp.Planned() {
			t.Fatalf("roof%d unplanned: skipped=%q err=%v", rp.Roof.ID, rp.Skipped, rp.Run.Err)
		}
		golden.Roofs = append(golden.Roofs, goldenDistrictRun{
			ID: rp.Roof.ID, Building: rp.Roof.Building, Segment: rp.Roof.Segment,
			Rect:  [4]int{rp.Roof.Rect.X0, rp.Roof.Rect.Y0, rp.Roof.Rect.X1, rp.Roof.Rect.Y1},
			Cells: rp.Roof.Cells, SlopeDeg: rp.Roof.Plane.SlopeDeg, AspectDeg: rp.Roof.Plane.AspectDeg,
			Golden: goldenFromResult(rp.Run.Name, rp.Modules, rp.Run.Result),
		})
	}
	checkGolden(t, "rundistrict_gabled.json", golden)
}

// TestGoldenDistrictReportEcon pins the full machine-readable
// district report with the economics pass enabled — NPV ranking under
// a budget cap, per-roof econ rows (panel class, capex, NPV, payback,
// LCOE) and the fleet summary. This is the exact JSON cmd/pvdistrict
// -json emits and the serve endpoints embed, so the byte-equivalence
// of every econ-enabled surface is pinned here once.
func TestGoldenDistrictReportEcon(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	res, err := RunDistrict(DistrictConfig{
		Tile: tile,
		FleetOptions: FleetOptions{Economics: EconConfig{
			Enabled:   true,
			RankBy:    RankByNPV,
			BudgetUSD: 60000,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Econ == nil || res.Econ.RoofsAdmitted == 0 {
		t.Fatalf("econ pass admitted no roofs: %+v", res.Econ)
	}
	checkGolden(t, "districtreport_econ.json", NewDistrictReport(res))
}
