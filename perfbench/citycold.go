package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	pvfloor "repro"
	"repro/internal/district"
	"repro/internal/dsm"
	"repro/internal/faultfs"
	"repro/internal/fieldcache"
	"repro/internal/geom"
	"repro/internal/gis"
	"repro/internal/solar/field"
	"repro/internal/solar/horizon"
)

// city-cold: RunCity over a seeded 6×6-lot city (540×540 cells at
// 0.2 m, 36 buildings, 48 roof planes) written once as an ESRI ASCII
// grid and read through gis.OpenWindowed, swept as 2×2 work tiles of
// 270 cells at the default (shadow-reach) halo. Every unit gets a
// fresh reader (cold block cache), a fresh artifact-cache directory, a
// fresh DirCheckpoint and a cleared astronomy memo, so every unit pays
// the whole cold path: window decode, horizon march, stats pass,
// artifact writes and checkpoint fsyncs.

const (
	cityLots      = 6
	cityTileCells = 270
	citySetups    = 5
)

type cityInput struct {
	raster *dsm.Raster
	inv    Inventory
	path   string
}

// writeASC writes the raster as an ESRI ASCII grid.
func writeASC(path string, r *dsm.Raster) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := gis.FromRaster(r, 0, 0).WriteAsc(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cityRun is one RunCity execution's settings and observations.
type cityRun struct {
	src   pvfloor.CitySource
	cache *fieldcache.Cache
	ckpt  pvfloor.CityCheckpoint

	mu      sync.Mutex
	started map[int]time.Time
	tileMS  []float64
	onEvent func(ev pvfloor.CityEvent) // extra observer (traced run)
}

func (c *cityRun) run() (*pvfloor.CityResult, error) {
	c.started = map[int]time.Time{}
	return pvfloor.RunCity(pvfloor.CityConfig{
		Source:     c.src,
		TileCells:  cityTileCells,
		Cache:      c.cache,
		Checkpoint: c.ckpt,
		Progress: func(ev pvfloor.CityEvent) {
			now := time.Now()
			switch ev.Kind {
			case pvfloor.CityTileStarted:
				c.mu.Lock()
				c.started[ev.Tile] = now
				c.mu.Unlock()
			case pvfloor.CityTileFinished:
				c.mu.Lock()
				c.tileMS = append(c.tileMS, float64(now.Sub(c.started[ev.Tile]))/1e6)
				c.mu.Unlock()
			}
			if c.onEvent != nil {
				c.onEvent(ev)
			}
		},
	})
}

// roofRows marshals a city report's roof rows without their tile
// column — the shape a monolithic district report has.
func roofRows(rep pvfloor.CityReport) []byte {
	rows := make([]pvfloor.RoofReport, len(rep.Roofs))
	for i, r := range rep.Roofs {
		rows[i] = r.RoofReport
	}
	data, _ := json.Marshal(rows)
	return data
}

// checkInventory verifies that extraction found every generated
// building (distinct building numbers) and rejected every tree as
// non-planar.
func checkInventory(rep pvfloor.CityReport, inv Inventory) error {
	buildings := map[int]bool{}
	for _, r := range rep.Roofs {
		buildings[r.Building] = true
	}
	trees := 0
	for _, d := range rep.Dropped {
		if d.Reason == string(district.DropNonPlanar) {
			trees++
		}
	}
	if len(buildings) != inv.Buildings || trees != inv.Trees {
		return fmt.Errorf("extraction found %d buildings and %d non-planar drops, generator placed %d buildings and %d trees",
			len(buildings), trees, inv.Buildings, inv.Trees)
	}
	return nil
}

func runCityCold(rc *runCtx) (*outcome, error) {
	var setups []float64
	var in cityInput
	for i := 0; i < citySetups; i++ {
		t0 := time.Now()
		r, inv := GenerateCity(rc.seed, cityLots, cityLots)
		path := filepath.Join(rc.work, fmt.Sprintf("city-%d.asc", i))
		if err := writeASC(path, r); err != nil {
			return nil, err
		}
		wr, err := gis.OpenWindowed(path, gis.WindowOptions{})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		wr.Close()
		in = cityInput{raster: r, inv: inv, path: path}
	}

	// The reference: one monolithic district run over the same raster,
	// outside any timed section.
	mono, err := pvfloor.RunDistrict(pvfloor.DistrictConfig{Tile: in.raster})
	if err != nil {
		return nil, fmt.Errorf("monolithic reference: %w", err)
	}
	want, _ := json.Marshal(pvfloor.NewDistrictReport(mono).Roofs)

	out := &outcome{}
	u := &unitStats{}
	var first []byte
	var planned int
	rep := 0
	unit := func(tr *tracer) (*cityRun, *pvfloor.CityResult, error) {
		rep++
		wr, err := gis.OpenWindowed(in.path, gis.WindowOptions{})
		if err != nil {
			return nil, nil, err
		}
		defer wr.Close()
		cacheDir := filepath.Join(rc.work, fmt.Sprintf("cache-%d", rep))
		ckptDir := filepath.Join(rc.work, fmt.Sprintf("ckpt-%d", rep))
		defer os.RemoveAll(cacheDir)
		defer os.RemoveAll(ckptDir)
		var fsys faultfs.FS = faultfs.OS()
		var sc *scope
		cr := &cityRun{src: wr}
		if tr != nil {
			sc = &scope{}
			fsys = &tracedFS{FS: fsys, tr: tr, sc: sc}
			cr.src = &tracedSource{CitySource: wr, tr: tr, sc: sc}
		}
		if cr.cache, err = fieldcache.OpenTiered(fieldcache.Config{Dir: cacheDir, FS: fsys}); err != nil {
			return nil, nil, err
		}
		ckpt, err := pvfloor.NewDirCheckpoint(ckptDir)
		if err != nil {
			return nil, nil, err
		}
		cr.ckpt = ckpt
		if tr != nil {
			cr.ckpt = &tracedCheckpoint{CityCheckpoint: ckpt, tr: tr, sc: sc}
		}
		field.ResetAstroCache()
		var res *pvfloor.CityResult
		if err := u.measureUnit(func() (err error) {
			if tr != nil {
				root := tr.open("pvfloor.RunCity", "city", 0)
				defer tr.close(root)
				sc.set(root, "city")
				cr.onEvent = tileTimeline(tr, sc, root)
			}
			res, err = cr.run()
			return err
		}); err != nil {
			return nil, nil, err
		}
		u.opsMS = append(u.opsMS, cr.tileMS...)
		report := pvfloor.NewCityReport(res)
		rows := roofRows(report)
		if first == nil {
			first = rows
		}
		planned = report.Totals.RoofsPlanned
		switch {
		case !bytes.Equal(rows, want):
			return nil, nil, fmt.Errorf("stitched city roof rows differ from the monolithic district run")
		case !bytes.Equal(rows, first):
			return nil, nil, fmt.Errorf("city roof rows differ between repetitions")
		}
		if err := checkInventory(report, in.inv); err != nil {
			return nil, nil, err
		}
		return cr, res, nil
	}

	if !rc.trace {
		out.attempted, out.failed = timedLoop(rc.budget, func() error {
			_, _, err := unit(nil)
			return err
		})
		v := e2eFromUnits(u, setups)
		v["max_rate_rps"] = float64(planned) / v["run_s"]
		v["success_ratio"] = successRatio(out.attempted, out.failed)
		out.metrics = fill(endToEnd, v)
		out.reportOnly = reportOnly(u)
		out.report = fmt.Sprintf("city-cold: %d units, %d tiles timed; %d roofs planned of %d generated roof planes (%+v)\n",
			len(u.wall), len(u.opsMS), planned, in.inv.Roofs(), in.inv) + unitLine(u) + renderMetrics("end-to-end", out.metrics)
		return out, nil
	}

	// Traced run: one untraced unit for the overhead reference, one
	// traced unit through the wrapped seams, then the replay.
	if _, _, err := unit(nil); err != nil {
		return nil, fmt.Errorf("untraced unit: %w", err)
	}
	untraced := u.wall[len(u.wall)-1]
	tr := newTracer()
	builds, passes := horizon.BuildCount(), field.StatsPassCount()
	rt0 := readRuntime()
	cr, res, err := unit(tr)
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
	runRows, runWall, runOverlap := tr.selfTimes("pvfloor.RunCity")
	v["gis.window_s"] = selfOf(runRows, "gis.window")
	v["gis.window_calls"] = float64(countOf(runRows, "gis.window"))
	if bs, ok := cr.src.(*tracedSource).blockStats(); ok && bs.Hits+bs.Misses > 0 {
		v["gis.block_hit_ratio"] = float64(bs.Hits) / float64(bs.Hits+bs.Misses)
	}
	m := cr.cache.Metrics()
	if m.Hits+m.Misses > 0 {
		v["fieldcache.hit_ratio"] = float64(m.Hits) / float64(m.Hits+m.Misses)
	}
	v["fieldcache.corrupt"] = float64(m.Corrupt)
	v["blobstore.read_s"] = selfOf(runRows, "blobstore.read")
	v["blobstore.read_mb"] = bytesOf(runRows, "blobstore.read")
	v["blobstore.write_s"] = selfOf(runRows, "blobstore.write")
	v["blobstore.write_mb"] = bytesOf(runRows, "blobstore.write")
	v["blobstore.fsync_s"] = selfOf(runRows, "blobstore.fsync")
	v["checkpoint.commit_s"] = selfOf(runRows, "checkpoint.commit")
	v["checkpoint.commits"] = float64(countOf(runRows, "checkpoint.commit"))
	v["trace.unattributed_s"] = selfOf(runRows, "pvfloor.RunCity", "pvfloor.tile", "pvfloor.tile.prepare", "pvfloor.tile.plan")

	// The replay: every work tile again, stage by stage, without a
	// cache so each stage does its cold work; its roofs must equal the
	// city report's.
	st := newStageStats()
	src, err := gis.OpenWindowed(in.path, gis.WindowOptions{})
	if err != nil {
		return nil, err
	}
	defer src.Close()
	report := pvfloor.NewCityReport(res)
	out.attempted = 2 + len(res.Tiles) // both units, then one replay check per tile
	root := tr.open("replay", "replay", 0)
	field.ResetAstroCache()
	for _, ti := range res.Tiles {
		win, mask, err := src.Window(ti.Window)
		if err != nil {
			return nil, err
		}
		group := fmt.Sprintf("tile-%d", ti.Index)
		tile := tr.open("replay.tile", group, root)
		origin := ti.Window.Anchor()
		core, bounds := ti.Core, src.Bounds()
		opts := district.Options{
			SeamEdges: district.Edges{
				Left: ti.Window.X0 > bounds.X0, Top: ti.Window.Y0 > bounds.Y0,
				Right: ti.Window.X1 < bounds.X1, Bottom: ti.Window.Y1 < bounds.Y1,
			},
			Keep: func(_ geom.Rect, cells []geom.Cell) bool { return centroidOwned(cells, origin, core) },
		}
		roofs, err := replayTile(replayPlan{fast: true, tr: tr, parent: tile, group: group}, st, win, mask, opts, origin)
		tr.close(tile)
		if err != nil {
			return nil, fmt.Errorf("replay tile %d: %w", ti.Index, err)
		}
		var rows []pvfloor.RoofReport
		for _, r := range report.Roofs {
			if r.Tile == ti.Index {
				rows = append(rows, r.RoofReport)
			}
		}
		if err := compareRoofs(roofs, rows); err != nil {
			out.failed++
			logf("replay tile %d: %v", ti.Index, err)
		}
	}
	tr.close(root)
	repRows, repWall, repOverlap := tr.selfTimes("replay")
	for k, x := range layerValues(repRows, st) {
		v[k] = x
	}
	v["trace.unattributed_s"] += selfOf(repRows, "replay", "replay.tile")
	out.metrics = fill(perLayer, v)
	out.tr = tr
	out.report = fmt.Sprintf("city-cold traced run: untraced unit %.3f s, traced unit %.3f s (tracing overhead %+.1f%%)\n",
		untraced, traced, v["trace.overhead_pct"]) +
		"-- RunCity through wrapped seams and its event timeline (pvfloor.* self = compute behind no seam) --\n" +
		layerTable(runRows, runWall, runOverlap) +
		"-- serial stage-by-stage replay (outputs checked equal to the run) --\n" +
		replayTable(repRows, repWall, repOverlap, st) +
		renderMetrics("per-layer", out.metrics)
	return out, nil
}

// tileTimeline turns a city run's progress events into spans: one
// pvfloor.tile span per work tile, split into pvfloor.tile.prepare
// (window, extraction and the tile horizon: tile start to the first
// roof-extracted event) and pvfloor.tile.plan (first roof-extracted to
// the last roof-planned event); the tile's own remainder is the
// checkpoint commit and bookkeeping. Wrapped seams called meanwhile
// record their spans under whichever of these is open.
func tileTimeline(tr *tracer, sc *scope, root int) func(pvfloor.CityEvent) {
	var mu sync.Mutex
	var tile, phase int
	var group string
	var lastPlanned time.Time
	return func(ev pvfloor.CityEvent) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case pvfloor.CityTileStarted:
			group = fmt.Sprintf("tile-%d", ev.Tile)
			tile = tr.open("pvfloor.tile", group, root)
			phase = tr.open("pvfloor.tile.prepare", group, tile)
			sc.set(phase, group)
		case pvfloor.DistrictRoofExtracted:
			if phase != 0 && tr.spanName(phase) == "pvfloor.tile.prepare" {
				tr.close(phase)
				phase = tr.open("pvfloor.tile.plan", group, tile)
				sc.set(phase, group)
			}
		case pvfloor.DistrictRoofPlanned:
			lastPlanned = now
		case pvfloor.CityTileFinished:
			if tr.spanName(phase) == "pvfloor.tile.plan" && !lastPlanned.IsZero() {
				tr.closeAt(phase, lastPlanned)
			} else {
				tr.close(phase)
			}
			tr.close(tile)
			sc.set(root, "city")
			phase, lastPlanned = 0, time.Time{}
		}
	}
}

// centroidOwned reports whether a footprint's centroid lies in core,
// with the city pipeline's exact integer test: cells are window-local,
// origin is the window anchor, centroid = (Σx + n/2)/n.
func centroidOwned(cells []geom.Cell, origin geom.Cell, core geom.Rect) bool {
	var sx, sy int64
	for _, c := range cells {
		sx += int64(c.X + origin.X)
		sy += int64(c.Y + origin.Y)
	}
	n := int64(len(cells))
	return 2*sx+n >= 2*n*int64(core.X0) && 2*sx+n < 2*n*int64(core.X1) &&
		2*sy+n >= 2*n*int64(core.Y0) && 2*sy+n < 2*n*int64(core.Y1)
}
