package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	pvfloor "repro"
	"repro/internal/geom"
	"repro/internal/scenario"
	"repro/internal/solar/field"
	"repro/internal/solar/horizon"
)

// paper-full: RunBatch regenerating the paper's Table I — Roofs 1–3 ×
// N ∈ {16, 32} — at Fidelity Full (the 2017 calendar at 15-minute steps
// over the 64-sector, 80 m horizon), with no artifact cache. The
// inputs are the paper's fixed roofs, so the seed is ignored. Every
// unit clears the astronomy memo first, so each regeneration costs
// what a fresh process pays.

const paperSetups = 5

var paperModules = []int{16, 32}

// updatingExpected makes paper-full rewrite its committed expected
// digests instead of checking against them.
var updatingExpected bool

// expectedRow pins one Table I row: the suitable-cell count, the stats
// digest and the net energies, exactly.
type expectedRow struct {
	Name           string  `json:"name"`
	Ng             int     `json:"ng"`
	GPctDigest     string  `json:"gpct_digest"`
	ProposedMWh    float64 `json:"proposed_mwh"`
	TraditionalMWh float64 `json:"traditional_mwh"`
	WiringExtraM   float64 `json:"wiring_extra_m"`
}

func paperConfigs() ([]pvfloor.Config, error) {
	var cfgs []pvfloor.Config
	for _, mk := range []func() (*scenario.Scenario, error){pvfloor.Roof1, pvfloor.Roof2, pvfloor.Roof3} {
		sc, err := mk()
		if err != nil {
			return nil, err
		}
		for _, n := range paperModules {
			cfgs = append(cfgs, pvfloor.Config{Scenario: sc, Modules: n, Fidelity: pvfloor.Full})
		}
	}
	return cfgs, nil
}

func rowOf(br pvfloor.BatchRun) expectedRow {
	r := br.Result
	return expectedRow{
		Name: br.Name, Ng: r.Scenario.Ng(), GPctDigest: pvfloor.GPctDigest(r.Stats),
		ProposedMWh: r.ProposedEval.NetMWh(), TraditionalMWh: r.TraditionalEval.NetMWh(),
		WiringExtraM: r.ProposedEval.WiringExtraM,
	}
}

// checkTableI checks every row: it ran, its Ng is the paper's, and it
// matches the committed expected row bit for bit.
func checkTableI(runs []pvfloor.BatchRun, want []expectedRow) error {
	if len(runs) != len(want) {
		return fmt.Errorf("%d Table I rows, expected %d", len(runs), len(want))
	}
	for i, br := range runs {
		if br.Err != nil {
			return fmt.Errorf("%s: %w", br.Name, br.Err)
		}
		if ng, paper := br.Result.Scenario.Ng(), br.Result.Scenario.PaperNg; ng != paper {
			return fmt.Errorf("%s: Ng %d, paper %d", br.Name, ng, paper)
		}
		if got := rowOf(br); got != want[i] {
			return fmt.Errorf("%s: got %+v, expected %+v", br.Name, got, want[i])
		}
	}
	return nil
}

func runPaperFull(rc *runCtx) (*outcome, error) {
	var setups []float64
	var cfgs []pvfloor.Config
	for i := 0; i < paperSetups; i++ {
		t0 := time.Now()
		var err error
		if cfgs, err = paperConfigs(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	expectedPath := filepath.Join(rc.srcDir, "testdata", "paper_full_expected.json")
	var want []expectedRow
	if !updatingExpected {
		data, err := os.ReadFile(expectedPath)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &want); err != nil {
			return nil, fmt.Errorf("%s: %w", expectedPath, err)
		}
	}

	out := &outcome{}
	u := &unitStats{}
	unit := func(tr *tracer) ([]pvfloor.BatchRun, error) {
		field.ResetAstroCache()
		var mu sync.Mutex
		var runs []pvfloor.BatchRun
		var done []float64
		var root int
		start := time.Now()
		err := u.measureUnit(func() (err error) {
			root = tr.open("pvfloor.RunBatch", "table-i", 0)
			start = time.Now()
			runs, err = pvfloor.RunBatch(cfgs, pvfloor.BatchOptions{Progress: func(br pvfloor.BatchRun) {
				now := time.Now()
				mu.Lock()
				done = append(done, float64(now.Sub(start))/1e6)
				mu.Unlock()
				tr.record("pvfloor.run", br.Name, root, now.Add(-br.Elapsed), now, 0)
			}})
			tr.close(root)
			return err
		})
		if err != nil {
			return nil, err
		}
		u.opsMS = append(u.opsMS, done...)
		if updatingExpected {
			want = nil
			for _, br := range runs {
				if br.Err != nil {
					return nil, br.Err
				}
				want = append(want, rowOf(br))
			}
			data, _ := json.MarshalIndent(want, "", "  ")
			if err := os.WriteFile(expectedPath, append(data, '\n'), 0o644); err != nil {
				return nil, err
			}
			updatingExpected = false
		}
		return runs, checkTableI(runs, want)
	}

	if !rc.trace {
		out.attempted, out.failed = timedLoop(rc.budget, func() error {
			_, err := unit(nil)
			return err
		})
		v := e2eFromUnits(u, setups)
		v["max_rate_rps"] = float64(len(cfgs)) / v["run_s"]
		v["success_ratio"] = successRatio(out.attempted, out.failed)
		out.metrics = fill(endToEnd, v)
		out.reportOnly = reportOnly(u)
		out.report = fmt.Sprintf("paper-full: %d regenerations of Table I (%d rows each)\n", len(u.wall), len(cfgs)) +
			unitLine(u) + renderMetrics("end-to-end", out.metrics)
		return out, nil
	}

	if _, err := unit(nil); err != nil {
		return nil, fmt.Errorf("untraced unit: %w", err)
	}
	out.attempted = 2 + len(cfgs) // both units, then one replay check per Table I row
	untraced := u.wall[len(u.wall)-1]
	tr := newTracer()
	builds, passes := horizon.BuildCount(), field.StatsPassCount()
	rt0 := readRuntime()
	runs, err := unit(tr)
	if err != nil {
		return nil, fmt.Errorf("traced unit: %w", err)
	}
	rt1 := readRuntime()
	traced := u.wall[len(u.wall)-1]
	v := map[string]float64{
		"horizon.builds":     float64(horizon.BuildCount() - builds),
		"field.stats_passes": float64(field.StatsPassCount() - passes),
		"go.alloc_mb":        float64(rt1.AllocBytes-rt0.AllocBytes) / (1 << 20),
		"go.gc_count":        float64(rt1.GCCount - rt0.GCCount),
		"go.gc_pause_ms":     (rt1.PauseSec - rt0.PauseSec) * 1e3,
		"trace.overhead_pct": 100 * (traced - untraced) / untraced,
	}
	runRows, runWall, runOverlap := tr.selfTimes("pvfloor.RunBatch")

	// The replay: each roof's horizon, field, stats and both module
	// counts, stage by stage, on freshly built scenarios.
	st := newStageStats()
	field.ResetAstroCache()
	root := tr.open("replay", "replay", 0)
	fresh, err := paperConfigs()
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(fresh); i += len(paperModules) {
		sc := fresh[i].Scenario
		parent := tr.open("replay.roof", sc.Name, root)
		p := replayPlan{tr: tr, parent: parent, group: sc.Name}
		var outs []roofOutcome
		err := p.sharedHorizon(st, sc.Scene.Raster, []geom.Rect{sc.Scene.RoofRect}, []*scenario.Scenario{sc})
		if err == nil {
			outs, err = p.replayRoof(st, sc, paperModules, false)
		}
		tr.close(parent)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", sc.Name, err)
		}
		for k, ro := range outs {
			got := expectedRow{Name: runs[i+k].Name, Ng: ro.Ng, GPctDigest: ro.Digest,
				ProposedMWh: ro.ProposedMWh, TraditionalMWh: ro.TraditionalMWh, WiringExtraM: ro.WiringExtraM}
			if got != rowOf(runs[i+k]) {
				out.failed++
				logf("replay %s differs from the run: %+v vs %+v", runs[i+k].Name, got, rowOf(runs[i+k]))
			}
		}
	}
	tr.close(root)
	repRows, repWall, repOverlap := tr.selfTimes("replay")
	for k, x := range layerValues(repRows, st) {
		v[k] = x
	}
	v["district.roofs"] = 0 // no extraction on the paper's fixed roofs
	v["trace.unattributed_s"] = selfOf(runRows, "pvfloor.RunBatch") + selfOf(repRows, "replay", "replay.roof")
	out.metrics = fill(perLayer, v)
	out.tr = tr
	out.report = fmt.Sprintf("paper-full traced run: untraced unit %.3f s, traced unit %.3f s (tracing overhead %+.1f%%)\n",
		untraced, traced, v["trace.overhead_pct"]) +
		"-- RunBatch (pvfloor.run spans are each run's own elapsed time) --\n" +
		layerTable(runRows, runWall, runOverlap) +
		"-- serial stage-by-stage replay (outputs checked equal to the run) --\n" +
		replayTable(repRows, repWall, repOverlap, st) +
		renderMetrics("per-layer", out.metrics)
	return out, nil
}
