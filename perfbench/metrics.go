package main

import (
	"fmt"
	"sort"
	"strings"
)

// The metric catalog. Every workload prints every end-to-end metric
// (untraced run) or every per-layer metric (traced run); a layer a
// workload never enters reports 0. BENCHMARK.json lists the same names.
// The latency percentiles and the peak heap are report-only: printed
// and kept in the result file but not end-to-end metrics, because on a
// shared 2-core virtual machine they do not repeat within the bounds
// from run to run — latency follows the hypervisor's CPU steal, the
// peak heap follows where the collector happened to run.

var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"max_rate_rps", "1/s"},
	{"success_ratio", "ratio"},
}

var perLayer = []struct{ name, unit string }{
	{"gis.window_s", "s"},
	{"gis.window_calls", "count"},
	{"gis.block_hit_ratio", "ratio"},
	{"district.extract_s", "s"},
	{"district.roofs", "count"},
	{"district.dropped", "count"},
	{"district.alloc_mb", "MB"},
	{"horizon.march_s", "s"},
	{"horizon.builds", "count"},
	{"horizon.rays", "count"},
	{"horizon.ns_per_ray", "ns"},
	{"horizon.alloc_mb", "MB"},
	{"field.new_s", "s"},
	{"field.stats_s", "s"},
	{"field.stats_passes", "count"},
	{"field.cell_steps", "count"},
	{"field.ns_per_cell_step", "ns"},
	{"field.alloc_mb", "MB"},
	{"floorplan.suitability_s", "s"},
	{"floorplan.compact_s", "s"},
	{"floorplan.evaluate_s", "s"},
	{"floorplan.alloc_mb", "MB"},
	{"optimize.place_s", "s"},
	{"optimize.place_success_ratio", "ratio"},
	{"optimize.alloc_mb", "MB"},
	{"econ.assess_s", "s"},
	{"econ.assess_calls", "count"},
	{"econ.alloc_mb", "MB"},
	{"fieldcache.hit_ratio", "ratio"},
	{"fieldcache.corrupt", "count"},
	{"blobstore.read_s", "s"},
	{"blobstore.read_mb", "MB"},
	{"blobstore.write_s", "s"},
	{"blobstore.write_mb", "MB"},
	{"blobstore.fsync_s", "s"},
	{"checkpoint.commit_s", "s"},
	{"checkpoint.commits", "count"},
	{"serve.ttfb_ms", "ms"},
	{"serve.first_extracted_ms", "ms"},
	{"serve.tail_ms", "ms"},
	{"serve.result_kb", "kB"},
	{"serve.rejected", "count"},
	{"serve.waiting_max", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_count", "count"},
	{"go.gc_pause_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.unattributed_s", "s"},
	{"trace.overhead_pct", "%"},
}

// fill turns measured values into the catalog's metric map: every
// catalog name appears, with 0 for a value the workload has none of.
// A value outside the catalog is a bug in the benchmark.
func fill(catalog []struct{ name, unit string }, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(catalog))
	known := map[string]bool{}
	for _, c := range catalog {
		out[c.name] = metric{Value: vals[c.name], Unit: c.unit}
		known[c.name] = true
	}
	for k := range vals {
		if !known[k] {
			panic("perfbench: metric " + k + " is not in the catalog")
		}
	}
	return out
}

// e2eFromUnits derives the run metrics shared by every workload from
// the timed units: the medians of wall and CPU time per unit.
func e2eFromUnits(u *unitStats, setup []float64) map[string]float64 {
	return map[string]float64{
		"setup_s": median(setup),
		"run_s":   median(u.wall),
		"cpu_s":   median(u.cpu),
	}
}

// reportOnly returns the figures printed beside the end-to-end metrics
// without a bound: the per-operation latency percentiles with their
// sample count, the largest peak heap in use over the units, and the
// share of machine CPU time the hypervisor stole during the units.
func reportOnly(u *unitStats) map[string]metric {
	steal := 0.0
	if u.tick > 0 {
		steal = 100 * float64(u.steal) / float64(u.tick)
	}
	return map[string]metric{
		"latency_p50_ms":  {Value: quantile(u.opsMS, 0.5), Unit: "ms"},
		"latency_p99_ms":  {Value: quantile(u.opsMS, 0.99), Unit: "ms"},
		"latency_samples": {Value: float64(len(u.opsMS)), Unit: "count"},
		"peak_heap_mb":    {Value: quantile(u.heap, 1), Unit: "MB"},
		"cpu_steal_pct":   {Value: steal, Unit: "%"},
	}
}

// unitLine lists every timed unit's wall time, CPU time and peak heap,
// so a run's medians can be read against their spread.
func unitLine(u *unitStats) string {
	var b strings.Builder
	b.WriteString("units (wall s / cpu s / peak heap MB):")
	for i := range u.wall {
		fmt.Fprintf(&b, " %.3f/%.3f/%.1f", u.wall[i], u.cpu[i], u.heap[i])
	}
	b.WriteString("\n")
	return b.String()
}

// successRatio is the complement of the error rate.
func successRatio(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// renderMetrics prints a metric map as aligned text.
func renderMetrics(title string, ms map[string]metric) string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-30s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	return b.String()
}

// layerValues turns the replay's span rows and stage counters into
// per-layer metric values (times in seconds from span self times,
// computed operation counts from the stage statistics).
func layerValues(rows []layerRow, st *stageStats) map[string]float64 {
	v := map[string]float64{
		"district.extract_s":      selfOf(rows, "district.extract", "district.scenarios"),
		"district.roofs":          float64(st.roofs),
		"district.dropped":        float64(st.dropped),
		"horizon.march_s":         selfOf(rows, "horizon.march"),
		"horizon.rays":            float64(st.rays),
		"field.new_s":             selfOf(rows, "field.new"),
		"field.stats_s":           selfOf(rows, "field.stats"),
		"field.cell_steps":        float64(st.cellSteps),
		"floorplan.suitability_s": selfOf(rows, "floorplan.suitability"),
		"floorplan.compact_s":     selfOf(rows, "floorplan.compact"),
		"floorplan.evaluate_s":    selfOf(rows, "floorplan.evaluate"),
		"optimize.place_s":        selfOf(rows, "optimize.place"),
		"econ.assess_s":           selfOf(rows, "econ.assess"),
		"econ.assess_calls":       float64(st.econCalls),
	}
	if st.rays > 0 {
		v["horizon.ns_per_ray"] = v["horizon.march_s"] * 1e9 / float64(st.rays)
	}
	if st.cellSteps > 0 {
		v["field.ns_per_cell_step"] = v["field.stats_s"] * 1e9 / float64(st.cellSteps)
	}
	if st.placeAttempts > 0 {
		v["optimize.place_success_ratio"] = float64(st.placeFits) / float64(st.placeAttempts)
	}
	for layer, mb := range st.allocMB {
		v[layer+".alloc_mb"] = mb
	}
	return v
}

// replayTable renders the replay's per-stage table with the computed
// operation volumes.
func replayTable(rows []layerRow, wall, overlap float64, st *stageStats) string {
	var b strings.Builder
	b.WriteString(layerTable(rows, wall, overlap))
	fmt.Fprintf(&b, "computed: horizon rays (cells x sectors) %d, stats cell-steps (suitable cells x calendar steps) %d\n",
		st.rays, st.cellSteps)
	fmt.Fprintf(&b, "placements: %d fit of %d attempts; econ.Assess calls %d\n", st.placeFits, st.placeAttempts, st.econCalls)
	layers := make([]string, 0, len(st.allocMB))
	for l := range st.allocMB {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	b.WriteString("allocated MB by layer:")
	for _, l := range layers {
		fmt.Fprintf(&b, " %s %.1f", l, st.allocMB[l])
	}
	b.WriteString("\n")
	return b.String()
}
