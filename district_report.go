package pvfloor

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/district"
	"repro/internal/geom"
	"repro/internal/solar/field"
)

// This file is the machine-readable district report: one JSON-ready
// struct tree shared by every surface that emits district results —
// cmd/pvdistrict -json and the pvserve streaming endpoints marshal
// the same types, so their outputs are byte-equivalent by
// construction and both stay pinned by the golden corpus.

// RectReport is a bounding rectangle in tile cells.
type RectReport struct {
	X0 int `json:"x0"`
	Y0 int `json:"y0"`
	X1 int `json:"x1"`
	Y1 int `json:"y1"`
}

// NewRectReport converts a geometry rect.
func NewRectReport(r geom.Rect) RectReport {
	return RectReport{X0: r.X0, Y0: r.Y0, X1: r.X1, Y1: r.Y1}
}

// RoofReport is the per-roof row of a district report.
type RoofReport struct {
	ID int `json:"id"`
	// Building groups segments extracted from one building component;
	// Segment numbers the plane within it (0 = single-plane building).
	Building       int        `json:"building,omitempty"`
	Segment        int        `json:"segment,omitempty"`
	Rect           RectReport `json:"rect"`
	Cells          int        `json:"cells"`
	SuitableCells  int        `json:"suitable_cells"`
	SlopeDeg       float64    `json:"slope_deg"`
	AspectDeg      float64    `json:"aspect_deg"`
	FitRMSM        float64    `json:"fit_rms_m"`
	MeanHeightM    float64    `json:"mean_height_m"`
	Rank           int        `json:"rank,omitempty"`
	Modules        int        `json:"modules,omitempty"`
	ProposedMWh    float64    `json:"proposed_mwh,omitempty"`
	TraditionalMWh float64    `json:"traditional_mwh,omitempty"`
	// GainPct is a pointer so a planned roof with exactly 0% gain
	// still serialises (omitempty on a float64 would drop the
	// legitimate zero); it is nil — and absent — only for unplanned
	// roofs.
	GainPct      *float64 `json:"gain_pct,omitempty"`
	WiringExtraM float64  `json:"wiring_extra_m,omitempty"`
	// Econ carries the roof's economics report when the run's
	// economics pass is enabled.
	Econ    *EconReport `json:"econ,omitempty"`
	Skipped string      `json:"skipped,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// DroppedReport records one rejected candidate region.
type DroppedReport struct {
	Rect   RectReport `json:"rect"`
	Cells  int        `json:"cells"`
	Reason string     `json:"reason"`
}

// EconTotalsReport aggregates the economics pass of a district/city
// run: the resolved objective plus capital and value totals over the
// admitted roofs.
type EconTotalsReport struct {
	RankBy           string  `json:"rank_by"`
	BudgetUSD        float64 `json:"budget_usd,omitempty"`
	RoofsAdmitted    int     `json:"roofs_admitted"`
	CapexUSD         float64 `json:"capex_usd"`
	NPVUSD           float64 `json:"npv_usd"`
	AnnualRevenueUSD float64 `json:"annual_revenue_usd"`
}

// NewEconTotalsReport converts the fleet summary (nil-safe).
func NewEconTotalsReport(f *FleetEcon) *EconTotalsReport {
	if f == nil {
		return nil
	}
	return &EconTotalsReport{
		RankBy:           string(f.RankBy),
		BudgetUSD:        f.BudgetUSD,
		RoofsAdmitted:    f.RoofsAdmitted,
		CapexUSD:         f.TotalCapexUSD,
		NPVUSD:           f.TotalNPVUSD,
		AnnualRevenueUSD: f.TotalAnnualRevenueUSD,
	}
}

// TotalsReport aggregates a district run. With a budget-capped
// economics pass the energy totals cover the admitted subset.
type TotalsReport struct {
	RoofsExtracted  int               `json:"roofs_extracted"`
	RoofsPlanned    int               `json:"roofs_planned"`
	ProposedMWh     float64           `json:"proposed_mwh"`
	TraditionalMWh  float64           `json:"traditional_mwh"`
	DistrictGainPct float64           `json:"district_gain_pct"`
	WiringExtraM    float64           `json:"wiring_extra_m"`
	Econ            *EconTotalsReport `json:"econ,omitempty"`
}

// DistrictReport is the machine-readable district report, ranked
// per-roof outcomes plus aggregate totals.
type DistrictReport struct {
	GroundZ   float64         `json:"ground_z"`
	CellSizeM float64         `json:"cell_size_m"`
	Roofs     []RoofReport    `json:"roofs"`
	Dropped   []DroppedReport `json:"dropped,omitempty"`
	Totals    TotalsReport    `json:"totals"`
}

// NewDistrictReport flattens a DistrictResult into its report form.
// Roofs appear in extraction (ID) order; Rank carries the best-first
// ranking (1 = best, 0 = unplanned).
func NewDistrictReport(res *DistrictResult) DistrictReport {
	plans := res.roofPlans()
	out := DistrictReport{
		GroundZ:   res.Extraction.GroundZ,
		CellSizeM: res.Extraction.CellSizeM,
		Dropped:   droppedReports(res.Extraction.Dropped),
		Totals:    res.totalsReport(len(plans)),
	}
	rank := res.rankOf(len(plans))
	for i, rp := range plans {
		out.Roofs = append(out.Roofs, newRoofReport(rp, rank[i]))
	}
	return out
}

// totalsReport flattens the summary over a fleet of n roofs.
func (fs *FleetSummary) totalsReport(n int) TotalsReport {
	return TotalsReport{
		RoofsExtracted:  n,
		RoofsPlanned:    len(fs.Ranked),
		ProposedMWh:     fs.TotalProposedMWh,
		TraditionalMWh:  fs.TotalTraditionalMWh,
		DistrictGainPct: fs.GainPct(),
		WiringExtraM:    fs.TotalWiringExtraM,
		Econ:            NewEconTotalsReport(fs.Econ),
	}
}

// newRoofReport flattens one roof plan into its report row at the
// given 1-based rank (0 = unranked).
func newRoofReport(rp *RoofPlan, rank int) RoofReport {
	rj := RoofReport{
		ID:            rp.Roof.ID,
		Building:      rp.Roof.Building,
		Segment:       rp.Roof.Segment,
		Rect:          NewRectReport(rp.Roof.Rect),
		Cells:         rp.Roof.Cells,
		SuitableCells: rp.Roof.Suitable.Count(),
		SlopeDeg:      rp.Roof.Plane.SlopeDeg,
		AspectDeg:     rp.Roof.Plane.AspectDeg,
		FitRMSM:       rp.Roof.FitRMSM,
		MeanHeightM:   rp.Roof.MeanHeightM,
		Rank:          rank,
		Skipped:       rp.Skipped,
	}
	if o := rp.Outcome(); o.Planned {
		gain := o.GainPct
		rj.Modules = rp.Modules
		rj.ProposedMWh = o.ProposedMWh
		rj.TraditionalMWh = o.TraditionalMWh
		rj.GainPct = &gain
		rj.WiringExtraM = o.WiringExtraM
		rj.Econ = rp.Econ
	} else if o.RunErr != "" {
		rj.Error = o.RunErr
	}
	return rj
}

// droppedReports flattens rejected candidate regions.
func droppedReports(dropped []district.Dropped) []DroppedReport {
	var out []DroppedReport
	for _, d := range dropped {
		out = append(out, DroppedReport{
			Rect: NewRectReport(d.Rect), Cells: d.Cells, Reason: string(d.Reason),
		})
	}
	return out
}

// CityTileReport summarises one work tile of a city report.
type CityTileReport struct {
	Index   int        `json:"index"`
	Core    RectReport `json:"core"`
	Window  RectReport `json:"window"`
	Skipped string     `json:"skipped,omitempty"`
	// GroundZ is a pointer so a tile whose detected ground sits at
	// exactly 0 m still serialises (omitempty on a float64 would drop
	// the legitimate zero); it is nil — and absent — only for tiles
	// that never ran (skipped or failed).
	GroundZ *float64 `json:"ground_z,omitempty"`
	Roofs   int      `json:"roofs"`
	// Attempts appears only when the tile needed retries (>1).
	Attempts int `json:"attempts,omitempty"`
	// Failed carries the final error of a tile that exhausted its
	// retries; its roofs are absent from the report.
	Failed string `json:"failed,omitempty"`
}

// CityRoofReport is a district roof row plus the work tile that owned
// (and planned) it. Rect coordinates are city cells.
type CityRoofReport struct {
	RoofReport
	Tile int `json:"tile"`
}

// CityReport is the machine-readable city report: the district report
// shape with tile provenance and the resolved partitioning, shared by
// cmd/pvdistrict -city -json and the pvserve /v1/city endpoint.
type CityReport struct {
	Bounds    RectReport       `json:"bounds"`
	CellSizeM float64          `json:"cell_size_m"`
	TileCells int              `json:"tile_cells"`
	HaloCells int              `json:"halo_cells"`
	Tiles     []CityTileReport `json:"tiles"`
	Roofs     []CityRoofReport `json:"roofs"`
	Dropped   []DroppedReport  `json:"dropped,omitempty"`
	Totals    TotalsReport     `json:"totals"`
}

// NewCityReport flattens a CityResult into its report form. Roofs
// appear in city extraction order; Rank carries the best-first city
// ranking.
func NewCityReport(cr *CityResult) CityReport {
	out := CityReport{
		Bounds:    NewRectReport(cr.Bounds),
		CellSizeM: cr.CellSizeM,
		TileCells: cr.TileCells,
		HaloCells: cr.HaloCells,
		Dropped:   droppedReports(cr.Dropped),
		Totals:    cr.totalsReport(len(cr.Plans)),
	}
	for _, ti := range cr.Tiles {
		tr := CityTileReport{
			Index: ti.Index, Core: NewRectReport(ti.Core), Window: NewRectReport(ti.Window),
			Skipped: ti.Skipped, Roofs: ti.Roofs, Failed: ti.Failed,
		}
		if ti.Skipped == "" && ti.Failed == "" {
			gz := ti.GroundZ
			tr.GroundZ = &gz
		}
		if ti.Attempts > 1 {
			tr.Attempts = ti.Attempts
		}
		out.Tiles = append(out.Tiles, tr)
	}
	rank := cr.rankOf(len(cr.Plans))
	for i := range cr.Plans {
		cp := &cr.Plans[i]
		out.Roofs = append(out.Roofs, CityRoofReport{RoofReport: newRoofReport(&cp.RoofPlan, rank[i]), Tile: cp.Tile})
	}
	return out
}

// GPctDigest reduces per-cell irradiance statistics to a short hex
// digest of the exact float bit patterns (NaN cells included, so
// suitability-mask drift is caught too). The golden corpus and the
// pvserve progress events use it to pin the statistics pass without
// shipping the full matrix.
func GPctDigest(cs *field.CellStats) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(cs.Pct))
	h.Write(buf[:])
	for _, v := range cs.GPct {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
