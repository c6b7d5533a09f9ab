// Command perfbench is the repository's benchmark. It drives the
// program from outside only — pvfloor.RunCity and RunBatch as library
// calls, and an in-process pvserve behind a real loopback listener —
// on one of three workloads, checks the outputs, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric from a
// separate traced run) as the last line of standard output:
//
//	perfbench -workload city-cold -seed 1 -seconds 30 -trace 0
//	perfbench compare OLD.json NEW.json
//
// Every run also writes a result file with an environment stamp (CPU
// model, nproc, GOMAXPROCS, Go version, git commit) under
// .bench_build/results; compare refuses to report deltas between
// result files taken on different CPU models. See REFERENCE.md for
// the workloads, metrics and the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outcome is what a workload run produces.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	reportOnly        map[string]metric // printed and recorded, not gated
	report            string            // human-readable detail (tables, notes)
	tr                *tracer
}

// runCtx carries the run's settings to the workloads.
type runCtx struct {
	seed   int64
	budget time.Duration
	trace  bool
	work   string // scratch directory, removed when the run ends
	srcDir string // the benchmark's own directory (committed inputs)
}

var workloads = map[string]func(*runCtx) (*outcome, error){
	"city-cold":  runCityCold,
	"serve-warm": runServeWarm,
	"paper-full": runPaperFull,
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload: city-cold, serve-warm or paper-full")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measuring budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	updateExpected := flag.Bool("update-expected", false, "paper-full: rewrite the committed expected digests")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		logf("unknown workload %q", *workload)
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	build := filepath.Join(root, ".bench_build")
	work, err := os.MkdirTemp(mkdir(filepath.Join(build, "work")), *workload+"-")
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	// Everything the program writes to a temp directory (the windowed
	// reader inflates gzipped tiles there) stays inside the run's own
	// scratch directory.
	os.Setenv("TMPDIR", mkdir(filepath.Join(work, "tmp")))
	rc := &runCtx{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		work: work, srcDir: filepath.Join(root, "perfbench")}
	updatingExpected = *updateExpected

	env := stamp(root)
	logf("%s seed=%d seconds=%d trace=%d on %s at %d MHz (nproc %d, GOMAXPROCS %d, %s, commit %s)",
		*workload, *seed, *seconds, *trace, env.CPUModel, env.CPUMHz, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit)
	out, err := run(rc)
	os.RemoveAll(work)
	if err != nil {
		logf("%s: %v", *workload, err)
		os.Exit(1)
	}
	correct := out.failed == 0
	fmt.Print(out.report)
	if out.reportOnly != nil {
		fmt.Print(renderMetrics("report-only (no bound)", out.reportOnly))
	}

	res := resultFile{Env: env, Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Correct: correct, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics, ReportOnly: out.reportOnly}
	resDir := mkdir(filepath.Join(build, "results"))
	base := filepath.Join(resDir, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace))
	if data, err := json.MarshalIndent(res, "", "  "); err == nil {
		if err := os.WriteFile(base+".json", data, 0o644); err != nil {
			logf("writing result: %v", err)
		}
	}
	if out.tr != nil {
		if err := out.tr.dump(base + ".spans.json"); err != nil {
			logf("writing spans: %v", err)
		}
		fmt.Printf("span dump: %s.spans.json\n", base)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, out.metrics})
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func mkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	return dir
}

// envStamp identifies the machine and build a result was taken on.
type envStamp struct {
	CPUModel   string `json:"cpu_model"`
	CPUMHz     int    `json:"cpu_mhz"` // first core's clock, rounded to 100 MHz
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func stamp(root string) envStamp {
	e := envStamp{CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown (no .git)", Time: time.Now().UTC().Format(time.RFC3339)}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		// Virtual machines often name the CPU without its clock (the
		// 2.1 and 2.7 GHz Xeons this repository has run on both read
		// "Intel(R) Xeon(R) Processor"), so the clock is stamped too.
		for _, line := range strings.Split(string(data), "\n") {
			k, v, ok := strings.Cut(line, ":")
			switch k, v = strings.TrimSpace(k), strings.TrimSpace(v); {
			case !ok:
			case k == "model name" && e.CPUModel == "unknown":
				e.CPUModel = v
			case k == "cpu MHz" && e.CPUMHz == 0:
				if mhz, err := strconv.ParseFloat(v, 64); err == nil {
					e.CPUMHz = int(math.Round(mhz/100)) * 100
				}
			}
		}
	}
	// Only a checkout that is itself a git work tree names a commit;
	// git is not asked to search parent directories.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

// resultFile is the record every run leaves under .bench_build/results.
type resultFile struct {
	Env        envStamp          `json:"env"`
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	ReportOnly map[string]metric `json:"report_only,omitempty"`
}

// compareMain prints per-metric deltas between two result files — or,
// when they were taken on different CPUs (model, clock, nproc or
// GOMAXPROCS), a warning and no deltas: a CPU change moves every figure
// and is not a code change.
func compareMain(args []string) int {
	if len(args) != 2 {
		logf("usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var rs [2]resultFile
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &rs[i])
		}
		if err != nil {
			logf("reading %s: %v", p, err)
			return 2
		}
	}
	a, b := rs[0], rs[1]
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.CPUMHz != b.Env.CPUMHz ||
		a.Env.NProc != b.Env.NProc || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		fmt.Printf("WARNING: DIFFERENT MACHINES — NO DELTAS REPORTED\n"+
			"  old: %s at %d MHz, nproc %d, GOMAXPROCS %d\n  new: %s at %d MHz, nproc %d, GOMAXPROCS %d\n",
			a.Env.CPUModel, a.Env.CPUMHz, a.Env.NProc, a.Env.GOMAXPROCS,
			b.Env.CPUModel, b.Env.CPUMHz, b.Env.NProc, b.Env.GOMAXPROCS)
		return 3
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Printf("WARNING: different workloads or trace modes (%s/%d vs %s/%d) — no deltas reported\n",
			a.Workload, a.Trace, b.Workload, b.Trace)
		return 3
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s  old %s (%s)  new %s (%s)\n", a.Workload, a.Env.Commit, a.Env.GoVersion, b.Env.Commit, b.Env.GoVersion)
	for _, n := range names {
		ma, mb := a.Metrics[n], b.Metrics[n]
		delta := "n/a"
		if ma.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Printf("  %-30s %14.4f %14.4f %-6s %s\n", n, ma.Value, mb.Value, ma.Unit, delta)
	}
	return 0
}
