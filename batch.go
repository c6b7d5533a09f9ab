package pvfloor

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/fieldcache"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/solar/field"
)

// BatchOptions tunes RunBatch.
type BatchOptions struct {
	// Concurrency bounds how many runs execute simultaneously
	// (0 = one per CPU). Field construction for a group of runs that
	// share a scenario and calendar happens once, inside whichever
	// run gets there first; the other runs of the group wait for it
	// instead of duplicating the work.
	Concurrency int
	// FieldWorkers bounds the solar-field engine's concurrency for
	// every group's shared field construction and memoized
	// statistics pass, superseding the per-run Config.Workers: a
	// shared field cannot honour conflicting per-run settings, and
	// which run would otherwise win the build race is
	// nondeterministic. 0 = one worker per CPU; results are
	// identical for every value.
	FieldWorkers int
	// Context, when non-nil, bounds the whole batch: once it is
	// cancelled no further run starts — runs already executing finish
	// normally (a run is never interrupted mid-physics), every run
	// not yet started is recorded with Err = Context.Err(), and
	// RunBatch returns as soon as the in-flight runs drain. The
	// returned slice still has len(cfgs) entries.
	Context context.Context
	// Progress, when non-nil, is invoked once per run as it finishes
	// (success, failure or cancellation), with the completed
	// BatchRun. Calls come concurrently from the pool workers, in
	// completion order — the callback must be safe for concurrent
	// use and should return quickly (it runs on the pool's critical
	// path). Runs abandoned wholesale after cancellation are still
	// reported, from the dispatching goroutine.
	Progress func(BatchRun)
}

// BatchRun is the structured outcome of one run in a batch. Exactly
// one of Result/Err is meaningful: Err == nil implies Result != nil.
type BatchRun struct {
	// Index is the position of the run's Config in the RunBatch
	// input slice (results are returned in input order).
	Index int
	// Name labels the run: Config.Label when set, otherwise a
	// derived "Roof 2/N=32"-style name.
	Name string
	// Config echoes the input.
	Config Config
	// Result is the full pipeline outcome (nil if the run failed).
	Result *Result
	// Err records the run's failure, if any.
	Err error
	// Elapsed is the wall-clock duration of the run. For the run
	// that builds its group's solar field this includes the
	// construction; for the other runs of the group it includes any
	// time spent waiting for that shared build, so summing Elapsed
	// across runs overcounts actual work.
	Elapsed time.Duration
	// FieldBuilt reports whether this run successfully constructed
	// its group's solar field (false = reused one built by another
	// run, or the build failed).
	FieldBuilt bool
}

// fieldGroup shares one constructed solar field among all runs that
// agree on scenario, horizon fidelity and calendar.
type fieldGroup struct {
	once    sync.Once
	workers int // BatchOptions.FieldWorkers, fixed at batch start
	ev      *field.Evaluator
	err     error
	built   int32 // index of the run that performed the build
}

// groupKey identifies a shareable field: same scenario object, same
// horizon fidelity, a calendar with the same fingerprint (two Grid
// instances enumerating identical instants share), and the same
// artifact cache handle.
type groupKey struct {
	sc    *scenario.Scenario
	fast  bool
	grid  string
	cache *fieldcache.Cache
}

// RunBatch executes many pipeline configurations concurrently — the
// fleet-of-roofs entry point. Runs fan out on a bounded pool
// (BatchOptions.Concurrency); runs that share a scenario and calendar
// share one solar field via the RunWithField amortisation, so a sweep
// of module counts, planner options or optimizer strategies
// (Config.Optimizer) over one roof pays for the field construction
// and the per-cell statistics pass exactly once. With Config.Cache
// set, both are additionally served from the persistent artifact
// cache, so a re-run of the whole batch over unchanged roofs skips
// horizon construction and the statistics pass entirely — across
// processes, not just within one.
//
// Per-run failures do not abort the batch: they are recorded in the
// corresponding BatchRun.Err and the remaining runs proceed. The
// returned slice always has len(cfgs) entries, in input order.
// RunBatch itself errors only on an empty batch — cancellation via
// BatchOptions.Context is likewise reported per run, so callers that
// need to distinguish it check their context (or the runs' Errs)
// after RunBatch returns.
func RunBatch(cfgs []Config, opts BatchOptions) ([]BatchRun, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("pvfloor: empty batch")
	}
	// Pre-size the group table serially so the hot phase only reads
	// the map.
	groups := make(map[groupKey]*fieldGroup)
	keys := make([]groupKey, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Scenario == nil {
			continue
		}
		k := groupKey{
			sc:    cfg.Scenario,
			fast:  cfg.Fidelity != Full,
			grid:  cfg.effectiveGrid().Fingerprint(),
			cache: cfg.Cache,
		}
		keys[i] = k
		if _, ok := groups[k]; !ok {
			groups[k] = &fieldGroup{built: -1, workers: opts.FieldWorkers}
		}
	}

	workers := opts.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	runs := make([]BatchRun, len(cfgs))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				// A cancelled batch stops launching work, but the
				// record for every run is still filled in.
				if err := ctx.Err(); err != nil {
					runs[i] = cancelledRun(i, cfgs[i], err)
				} else {
					runs[i] = runOne(i, cfgs[i], groups[keys[i]])
				}
				if opts.Progress != nil {
					opts.Progress(runs[i])
				}
			}
		}()
	}
dispatch:
	for i := range cfgs {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			// The runs never handed to a worker are recorded here;
			// runs already dispatched drain through the pool above.
			for j := i; j < len(cfgs); j++ {
				runs[j] = cancelledRun(j, cfgs[j], ctx.Err())
				if opts.Progress != nil {
					opts.Progress(runs[j])
				}
			}
			break dispatch
		}
	}
	close(idxCh)
	wg.Wait()
	return runs, nil
}

// cancelledRun records a batch entry abandoned by context
// cancellation before it started.
func cancelledRun(i int, cfg Config, cause error) BatchRun {
	return BatchRun{
		Index:  i,
		Name:   batchName(cfg),
		Config: cfg,
		Err:    fmt.Errorf("pvfloor: batch run %d (%s): %w", i, batchName(cfg), cause),
	}
}

// runOne executes one batch entry against its (possibly shared) field
// group.
func runOne(i int, cfg Config, g *fieldGroup) BatchRun {
	start := time.Now()
	br := BatchRun{Index: i, Name: batchName(cfg), Config: cfg}
	if cfg.Scenario == nil {
		br.Err = fmt.Errorf("pvfloor: batch run %d: nil scenario", i)
		br.Elapsed = time.Since(start)
		return br
	}
	g.once.Do(func() {
		g.built = int32(i)
		g.ev, g.err = cfg.buildField(g.workers)
	})
	br.FieldBuilt = g.built == int32(i) && g.err == nil
	if g.err != nil {
		br.Err = fmt.Errorf("pvfloor: batch run %d (%s): field: %w", i, br.Name, g.err)
		br.Elapsed = time.Since(start)
		return br
	}
	br.Result, br.Err = RunWithField(cfg, g.ev)
	br.Elapsed = time.Since(start)
	return br
}

// Name returns the display name batch results carry for this config:
// Label when set, otherwise a derived "Roof 2/N=32"-style name (plus
// optimizer-strategy and fidelity tags when non-default).
func (cfg Config) Name() string { return batchName(cfg) }

// batchName derives the display name of a batch entry.
func batchName(cfg Config) string {
	if cfg.Label != "" {
		return cfg.Label
	}
	if cfg.Scenario == nil {
		return "(nil scenario)"
	}
	name := fmt.Sprintf("%s/N=%d", cfg.Scenario.Name, cfg.Modules)
	if tag := cfg.Optimizer.label(); tag != "" {
		name += "/" + tag
	}
	if cfg.Fidelity == Full {
		name += "/full"
	}
	return name
}

// BatchTableI formats the successful runs of a batch as the paper's
// Table I, in input order. Failed runs are skipped (inspect their
// BatchRun.Err separately).
func BatchTableI(runs []BatchRun) string {
	rows := make([]report.TableIRow, 0, len(runs))
	for _, br := range runs {
		if br.Err != nil || br.Result == nil {
			continue
		}
		row := br.Result.TableIRow()
		if br.Config.Label != "" {
			row.Roof = br.Config.Label
		} else if tag := br.Config.Optimizer.label(); tag != "" {
			row.Roof += "/" + tag
		}
		rows = append(rows, row)
	}
	return report.FormatTableI(rows)
}
