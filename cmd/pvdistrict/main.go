// Command pvdistrict runs the district pipeline end to end: one DSM
// tile in, a ranked floorplan for every detected roof out. It extracts
// candidate roofs automatically (height thresholding, connected
// components, planar fitting), derives a planning scenario per roof,
// fans them through the concurrent batch engine and prints a ranked
// district report.
//
// Usage:
//
//	pvdistrict -tile neighborhood.asc        # sweep a real/exported tile
//	pvdistrict -demo                         # built-in synthetic block
//	pvdistrict -tile t.asc -json             # machine-readable report
//	pvdistrict -tile t.asc -cache ~/.pvcache # warm re-runs skip the physics
//	pvdistrict -tile t.asc -opt multistart -n 16
//	pvdistrict -tile t.asc -minheight 3 -minarea 100 -keepborder
//
// City-scale grids (too large to hold in memory) stream through the
// out-of-core tiled pipeline instead — the DSM file (plain or
// gzipped .asc) is indexed once, work tiles are materialised through
// a bounded block cache, and peak memory stays O(tile + halo)
// regardless of city size:
//
//	pvdistrict -city -tile city.asc.gz                # defaults: 512-cell tiles
//	pvdistrict -city -tile city.asc -tile-size 256 -mem-budget 128
//	pvdistrict -city -tile city.asc -tile-workers 4   # overlap IO and planning
//
// City runs can be made crash-safe and fault-tolerant: -checkpoint
// commits every finished tile durably (a killed run re-invoked with
// the same directory resumes from its last finished tile and stitches
// a byte-identical report), and -tile-retries/-tile-timeout/
// -retry-backoff retry failed tiles with capped exponential backoff
// before recording them as failed while the rest of the city
// completes:
//
//	pvdistrict -city -tile city.asc -checkpoint run1.ckpt -tile-retries 2
//
// Economics-aware fleet ranking prices every planned roof (capex,
// NPV, payback, LCOE over a panel catalog) and can re-rank the fleet
// by economic value or admit roofs greedily against a capital budget:
//
//	pvdistrict -demo -econ                         # price roofs, keep energy ranking
//	pvdistrict -demo -rank-by npv                  # rank by net present value
//	pvdistrict -demo -rank-by npv -budget 50000    # best roofs for $50k
//	pvdistrict -demo -panel-catalog mono-165:165:150,mono-400:400:360
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	pvfloor "repro"
	"repro/internal/district"
	"repro/internal/fieldcache"
	"repro/internal/gis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pvdistrict: ")
	tilePath := flag.String("tile", "", "ESRI ASCII grid DSM tile to sweep")
	demo := flag.Bool("demo", false, "use the built-in synthetic neighborhood tile instead of -tile")
	asJSON := flag.Bool("json", false, "emit the district report as JSON")
	full := flag.Bool("full", false, "full fidelity (15-minute full year) — minutes per roof")
	modules := flag.Int("n", 0, "fixed module count per roof (0 = auto-size from each roof's area)")
	maxModules := flag.Int("maxn", 32, "auto-size cap on modules per roof")
	optName := flag.String("opt", "greedy", "optimizer strategy: greedy, anneal, multistart, bnb")
	seed := flag.Int64("seed", 1, "random seed for the stochastic strategies")
	restarts := flag.Int("restarts", 0, "multistart restart count K (0 = default 8)")
	runs := flag.Int("runs", 0, "concurrent roof runs (0 = one per CPU)")
	workers := flag.Int("workers", 0, "solar-field workers per roof (0 = one per CPU)")
	cacheDir := flag.String("cache", "", "persistent field-artifact cache directory")
	noBaseline := flag.Bool("nobaseline", false, "skip the compact baseline placements")
	minHeight := flag.Float64("minheight", 0, "extraction: min height above ground in metres (0 = default 2.5)")
	minArea := flag.Int("minarea", 0, "extraction: min roof footprint in cells (0 = default 60)")
	minRect := flag.Float64("minrect", 0, "extraction: min footprint rectangularity (0 = default 0.55)")
	maxRMS := flag.Float64("maxrms", 0, "extraction: max plane-fit RMS in metres (0 = default 0.35)")
	keepBorder := flag.Bool("keepborder", false, "extraction: keep roofs touching the tile border")
	maxRoofs := flag.Int("maxroofs", 0, "extraction: cap on extracted roofs, largest first (0 = no cap)")
	margin := flag.Int("margin", 0, "extraction: suitable-area erosion margin in cells")
	city := flag.Bool("city", false, "out-of-core tiled sweep: window the DSM instead of loading it whole")
	tileSize := flag.Int("tile-size", 0, "city: core work-tile edge in cells (0 = default 512)")
	halo := flag.Int("halo", 0, "city: overlap margin in cells (0 = derive from the horizon's shadow reach, negative = none)")
	memBudget := flag.Int("mem-budget", 0, "windowed-reader block cache budget in MiB (0 = default 64)")
	tileWorkers := flag.Int("tile-workers", 0, "city: concurrent work tiles (0 = sequential, the bounded-memory default)")
	checkpoint := flag.String("checkpoint", "", "city: checkpoint directory — finished tiles are committed there and a re-run resumes from them")
	tileRetries := flag.Int("tile-retries", 0, "city: extra attempts per failed tile before it is recorded as failed")
	tileTimeout := flag.Duration("tile-timeout", 0, "city: per-tile attempt timeout (0 = unbounded)")
	retryBackoff := flag.Duration("retry-backoff", 0, "city: delay before the first tile retry, doubling per attempt (0 = 50ms)")
	econOn := flag.Bool("econ", false, "price every planned roof (capex, NPV, payback, LCOE) and report fleet economics")
	budget := flag.Float64("budget", 0, "econ: fleet capital budget in USD — admit roofs greedily by NPV per dollar (0 = unbounded, implies -econ)")
	panelCatalog := flag.String("panel-catalog", "", "econ: comma-separated panel classes name:wattsSTC[:moduleUSD] (default mono-165:165:150,mono-330:330:290; implies -econ)")
	rankBy := flag.String("rank-by", "", "econ: ranking objective energy|npv|payback (default energy; implies -econ)")
	flag.Parse()

	strat, err := pvfloor.ParseStrategy(*optName)
	if err != nil {
		log.Fatal(err)
	}
	econCfg, err := econConfig(*econOn, *budget, *panelCatalog, *rankBy)
	if err != nil {
		log.Fatal(err)
	}
	fid := pvfloor.Fast
	if *full {
		fid = pvfloor.Full
	}
	opts := pvfloor.FleetOptions{
		Extract: district.Options{
			MinHeightM:          *minHeight,
			MinAreaCells:        *minArea,
			MinRectangularity:   *minRect,
			MaxFitRMSM:          *maxRMS,
			KeepBorder:          *keepBorder,
			MaxRoofs:            *maxRoofs,
			SuitableMarginCells: *margin,
		},
		Modules:      *modules,
		MaxModules:   *maxModules,
		Fidelity:     fid,
		SkipBaseline: *noBaseline,
		Economics:    econCfg,
		Concurrency:  *runs,
		FieldWorkers: *workers,
		Optimizer: pvfloor.OptimizerConfig{
			Strategy: strat,
			Seed:     *seed,
			Restarts: *restarts,
		},
	}
	var cache *fieldcache.Cache
	if *cacheDir != "" {
		if cache, err = fieldcache.Open(*cacheDir); err != nil {
			log.Fatal(err)
		}
	}
	src, wr, err := openSource(*tilePath, *demo, *memBudget)
	if err != nil {
		log.Fatal(err)
	}
	if *city {
		runCity(cityFlags{
			wr: wr, asJSON: *asJSON,
			tileSize: *tileSize, halo: *halo, tileWorkers: *tileWorkers,
			checkpoint: *checkpoint,
			cfg: pvfloor.CityConfig{
				Source:       src,
				FleetOptions: opts,
				Cache:        cache,
				TileRetries:  *tileRetries,
				TileTimeout:  *tileTimeout,
				Backoff:      *retryBackoff,
			},
		})
		return
	}

	tile, nodata, err := src.Window(src.Bounds())
	if wr != nil {
		wr.Close()
	}
	if err != nil {
		log.Fatalf("reading %s: %v", *tilePath, err)
	}
	cfg := pvfloor.DistrictConfig{Tile: tile, NoData: nodata, FleetOptions: opts, Cache: cache}

	start := time.Now()
	res, err := pvfloor.RunDistrict(cfg)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	if *asJSON {
		if err := emitJSON(res); err != nil {
			log.Fatal(err)
		}
	} else {
		emitText(res, elapsed)
	}
	for i := range res.Plans {
		if rp := &res.Plans[i]; rp.Skipped == "" && rp.Run.Err != nil {
			os.Exit(1)
		}
	}
}

// openSource resolves -tile/-demo into the DSM source both modes run
// over: the built-in synthetic neighborhood, or the file (plain or
// gzipped .asc) indexed through the windowed reader with a block
// cache of memBudgetMiB. wr is that reader — nil for -demo — which
// the caller closes and whose cache counters the city report prints.
func openSource(path string, demo bool, memBudgetMiB int) (src pvfloor.CitySource, wr *gis.WindowedReader, err error) {
	switch {
	case demo && path != "":
		return nil, nil, errors.New("-tile and -demo are mutually exclusive")
	case demo:
		return &gis.RasterSource{Raster: district.SyntheticNeighborhood()}, nil, nil
	case path == "":
		return nil, nil, errors.New("either -tile or -demo is required")
	}
	wr, err = gis.OpenWindowed(path, gis.WindowOptions{CacheBytes: int64(memBudgetMiB) << 20})
	if err != nil {
		return nil, nil, fmt.Errorf("indexing %s: %w", path, err)
	}
	return wr, wr, nil
}

// cityFlags bundles the out-of-core run's command-line surface.
type cityFlags struct {
	wr          *gis.WindowedReader // nil for -demo
	asJSON      bool
	tileSize    int
	halo        int
	tileWorkers int
	checkpoint  string
	cfg         pvfloor.CityConfig
}

// runCity executes the out-of-core tiled sweep: the DSM file is
// indexed (never loaded whole) and served window by window through a
// bounded block cache.
func runCity(cf cityFlags) {
	if cf.wr != nil {
		defer cf.wr.Close()
	}
	cf.cfg.TileCells = cf.tileSize
	cf.cfg.HaloCells = cf.halo
	cf.cfg.TileWorkers = cf.tileWorkers
	if cf.checkpoint != "" {
		ck, err := pvfloor.NewDirCheckpoint(cf.checkpoint)
		if err != nil {
			log.Fatal(err)
		}
		cf.cfg.Checkpoint = ck
	}

	start := time.Now()
	res, err := pvfloor.RunCity(cf.cfg)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	if cf.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(pvfloor.NewCityReport(res)); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Print(pvfloor.CityTable(res))
		if cf.wr != nil {
			s := cf.wr.Stats()
			fmt.Printf("raster cache: %d hits, %d misses, %d evictions\n", s.Hits, s.Misses, s.Evictions)
		}
		fmt.Printf("%d roofs in %v\n", len(res.Plans), elapsed.Round(time.Millisecond))
	}
	for i := range res.Plans {
		if cp := &res.Plans[i]; cp.Skipped == "" && cp.Run.Err != nil {
			os.Exit(1)
		}
	}
}

// econConfig assembles the economics pass from its flag surface. Any
// of -budget, -panel-catalog or -rank-by implies -econ so the common
// invocations stay short.
func econConfig(on bool, budget float64, catalogSpec, rankBy string) (pvfloor.EconConfig, error) {
	ec := pvfloor.EconConfig{
		Enabled:   on || budget != 0 || catalogSpec != "" || rankBy != "",
		BudgetUSD: budget,
		RankBy:    pvfloor.RankBy(rankBy),
	}
	if !ec.Enabled {
		return pvfloor.EconConfig{}, nil
	}
	if catalogSpec != "" {
		catalog, err := parsePanelCatalog(catalogSpec)
		if err != nil {
			return pvfloor.EconConfig{}, err
		}
		ec.Catalog = catalog
	}
	if err := ec.Validate(); err != nil {
		return pvfloor.EconConfig{}, err
	}
	return ec, nil
}

// parsePanelCatalog parses the -panel-catalog flag: comma-separated
// name:wattsSTC[:moduleUSD] entries, e.g. "mono-165:165:150,bifacial-400:400".
func parsePanelCatalog(spec string) ([]pvfloor.PanelClass, error) {
	var catalog []pvfloor.PanelClass
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("panel class %q: want name:wattsSTC[:moduleUSD]", entry)
		}
		pc := pvfloor.PanelClass{Name: strings.TrimSpace(parts[0])}
		w, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("panel class %q: watts: %w", entry, err)
		}
		pc.WattsSTC = w
		if len(parts) == 3 {
			usd, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("panel class %q: price: %w", entry, err)
			}
			pc.ModuleUSD = usd
		}
		catalog = append(catalog, pc)
	}
	if len(catalog) == 0 {
		return nil, fmt.Errorf("panel catalog %q is empty", spec)
	}
	return catalog, nil
}

func emitText(res *pvfloor.DistrictResult, elapsed time.Duration) {
	ex := res.Extraction
	fmt.Printf("tile: %d roofs extracted (ground z %.2f m, %d elevated cells, %d candidate regions dropped)\n",
		len(ex.Roofs), ex.GroundZ, ex.ElevatedCells, len(ex.Dropped))
	for _, d := range ex.Dropped {
		fmt.Printf("  dropped %v (%d cells): %s\n", d.Rect, d.Cells, d.Reason)
	}
	fmt.Println()
	fmt.Print(pvfloor.DistrictTable(res))
	fmt.Printf("%d roofs in %v\n", len(res.Plans), elapsed.Round(time.Millisecond))
}

// emitJSON prints the shared machine-readable district report — the
// same pvfloor.DistrictReport struct the pvserve streaming endpoint
// emits, so the two surfaces stay byte-equivalent.
func emitJSON(res *pvfloor.DistrictResult) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(pvfloor.NewDistrictReport(res))
}
