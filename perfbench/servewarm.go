package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	pvfloor "repro"
	"repro/internal/district"
	"repro/internal/faultfs"
	"repro/internal/fieldcache"
	"repro/internal/geom"
	"repro/internal/gis"
	"repro/internal/serve"
	"repro/internal/solar/field"
	"repro/internal/solar/horizon"
	"repro/internal/tilestore"
)

// serve-warm: an in-process pvserve (local artifact cache and tile
// store) behind a real loopback listener. Setup uploads serveTiles
// seeded 2×2-lot tiles and sends every distinct request once, cold.
// The timed phase is an open loop — Poisson arrivals from a seeded
// schedule, sent from this process over at most nproc connections —
// mixing /v1/district and /v1/city by tile_ref, greedy and anneal
// placers, with and without an economics budget. Latency runs from
// each request's due time to its final "result" line. The warm phase
// ray-marches nothing and runs no stats pass; both are checked.

const (
	serveTiles    = 4
	serveLots     = 2
	serveSetups   = 2
	serveBudget   = 12000.0 // econ budget (USD) of the budget-capped requests
	annealIters   = 2000
	serveDeadline = 5 * time.Second // a request not answered this long after its due time fails
)

// The fixed open-loop rates (requests/s) in the order they run, the
// reference rate the latency metrics are taken at, and the p99 latency
// limit a rate must meet to count toward max_rate_rps. Each phase sends
// a whole number of rounds of the distinct requests (every request
// equally often), so the work per phase does not depend on the seed.
// On a 2-core Xeon the warm capacity is about 40 requests/s, and about
// half that while the hypervisor steals CPU: 5/s (the reference, where
// requests rarely overlap, so latency is close to service time) and
// 10/s stay below it either way, 60/s is well above it.
var (
	serveRates    = []float64{5, 10, 60}
	serveRefRate  = 5.0
	serveLimitMS  = 1000.0
	serveProbeRnd = 2 // rounds of the distinct requests at every rate but the reference
)

// refRounds sizes the reference phase to about 60% of the measuring
// budget (at least two rounds of the distinct requests).
func refRounds(budget time.Duration, distinct int) int {
	return max(2, int(math.Round(0.6*budget.Seconds()*serveRefRate/float64(distinct))))
}

type serveRequest struct {
	path string
	body []byte
	name string
	tile int
	// replay settings (district requests only)
	strategy string
	econ     bool
}

// server is one running in-process pvserve plus its client side.
type server struct {
	hs     *http.Server
	done   chan struct{}
	base   string
	client *http.Client
	dir    string
	reqs   []serveRequest
	cold   [][]byte // result payload per request, from the cold pass
	tiles  [][]byte // uploaded ASC text per tile
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.done
	s.client.CloseIdleConnections()
}

// tileASC renders a seeded serve tile as ESRI ASCII text.
func tileASC(seed int64, k int) ([]byte, error) {
	r, _ := GenerateCity(seed*1000+int64(k), serveLots, serveLots)
	var b bytes.Buffer
	if err := gis.FromRaster(r, 0, 0).WriteAsc(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// startServer brings a server up, uploads the tiles and runs the cold
// pass over every distinct request.
func startServer(rc *runCtx, idx int) (*server, error) {
	dir := filepath.Join(rc.work, fmt.Sprintf("serve-%d", idx))
	srv, err := serve.New(serve.Options{CacheDir: filepath.Join(dir, "cache"), TilesDir: filepath.Join(dir, "tiles")})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{hs: &http.Server{Handler: srv}, done: make(chan struct{}), dir: dir,
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU(), DisableCompression: true,
		}}}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln)
	}()
	fail := func(err error) (*server, error) {
		s.close()
		return nil, err
	}
	for k := 0; k < serveTiles; k++ {
		asc, err := tileASC(rc.seed, k)
		if err != nil {
			return fail(err)
		}
		resp, err := s.client.Post(s.base+"/v1/tiles", "text/plain", bytes.NewReader(asc))
		if err != nil {
			return fail(err)
		}
		var info tilestore.Info
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			return fail(fmt.Errorf("tile upload: status %d: %v", resp.StatusCode, err))
		}
		s.tiles = append(s.tiles, asc)
		for _, endpoint := range []string{"district", "city"} {
			for _, strategy := range []string{"", "anneal"} {
				for _, withEcon := range []bool{false, true} {
					req := serve.DistrictRequest{TileRef: info.Ref,
						Optimizer: serve.OptimizerRequest{Strategy: strategy}}
					if strategy == "anneal" {
						req.Optimizer.Iterations = annealIters
					}
					if withEcon {
						req.Econ = &serve.EconRequest{BudgetUSD: serveBudget, RankBy: "npv"}
					}
					var body []byte
					if endpoint == "city" {
						body, err = json.Marshal(serve.CityRequest{DistrictRequest: req})
					} else {
						body, err = json.Marshal(req)
					}
					if err != nil {
						return fail(err)
					}
					s.reqs = append(s.reqs, serveRequest{path: "/v1/" + endpoint, body: body, tile: k,
						name:     fmt.Sprintf("%s/tile%d/%s/econ=%t", endpoint, k, placerName(strategy), withEcon),
						strategy: strategy, econ: withEcon})
				}
			}
		}
	}
	for _, rq := range s.reqs {
		res := s.send(context.Background(), rq, time.Now())
		if res.err != nil {
			return fail(fmt.Errorf("cold %s: %w", rq.name, res.err))
		}
		s.cold = append(s.cold, res.payload)
	}
	return s, nil
}

func placerName(strategy string) string {
	if strategy == "" {
		return "greedy"
	}
	return strategy
}

// reqResult is one request's client-side timeline.
type reqResult struct {
	due, sent, headers, firstExtracted, lastPlanned, result time.Time
	payload                                                 []byte
	bytes                                                   int
	status                                                  int
	err                                                     error
}

// send issues one streaming request and reads its NDJSON events up to
// the final result line.
func (s *server) send(ctx context.Context, rq serveRequest, due time.Time) reqResult {
	res := reqResult{due: due, sent: time.Now()}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		res.err = err
		return res
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(hreq)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.headers = time.Now()
	res.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return res
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		res.bytes += len(line) + 1
		var ev struct {
			Event    string          `json:"event"`
			Error    string          `json:"error"`
			District json.RawMessage `json:"district"`
			City     json.RawMessage `json:"city"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			res.err = fmt.Errorf("bad event line: %w", err)
			return res
		}
		now := time.Now()
		switch ev.Event {
		case "roof-extracted":
			if res.firstExtracted.IsZero() {
				res.firstExtracted = now
			}
		case "roof-planned":
			res.lastPlanned = now
		case "error":
			res.err = errors.New(ev.Error)
			return res
		case "result":
			res.result = now
			res.payload = append([]byte(nil), ev.District...)
			if ev.City != nil {
				res.payload = append([]byte(nil), ev.City...)
			}
			res.bytes = len(line)
			return res
		}
	}
	if err := sc.Err(); err != nil {
		res.err = err
	} else {
		res.err = errors.New("stream ended without a result line")
	}
	return res
}

// phaseResult summarises one open-loop phase.
type phaseResult struct {
	rate       float64
	results    []reqResult
	reqIdx     []int
	latencyMS  []float64 // per request, failures as +Inf
	lagMS      []float64
	ok, failed int
	rejected   int
	mismatched int
	growing    bool
	wall       float64
}

func (p *phaseResult) p(q float64) float64 { return quantile(p.latencyMS, q) }

// passes reports whether the phase met the latency limit with no
// failures and no growing backlog.
func (p *phaseResult) passes() bool {
	return p.failed == 0 && p.p(0.99) <= serveLimitMS && !p.growing
}

// runPhase sends rounds × every distinct request, in seeded random
// order, at Poisson arrival times of the given rate (a Poisson process
// conditioned on its count: uniform order statistics over the phase),
// and waits for every request to finish or miss its deadline.
func (s *server) runPhase(rng *rand.Rand, rate float64, rounds int, onResult func(i int, r reqResult)) *phaseResult {
	n := rounds * len(s.reqs)
	seconds := float64(n) / rate
	offsets := make([]float64, n)
	idx := make([]int, n)
	for i := range offsets {
		offsets[i] = rng.Float64() * seconds
		idx[i] = i % len(s.reqs)
	}
	sort.Float64s(offsets)
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	pr := &phaseResult{rate: rate, results: make([]reqResult, len(offsets)), reqIdx: idx}
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i, off := range offsets {
		due := start.Add(time.Duration(off * float64(time.Second)))
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(), due.Add(serveDeadline))
			defer cancel()
			r := s.send(ctx, s.reqs[idx[i]], due)
			pr.results[i] = r
			if onResult != nil {
				onResult(i, r)
			}
		}(i, due)
	}
	wg.Wait()
	var last time.Time
	for i, r := range pr.results {
		pr.lagMS = append(pr.lagMS, float64(r.sent.Sub(r.due))/1e6)
		switch {
		case r.err != nil:
			pr.failed++
			if r.status == http.StatusServiceUnavailable {
				pr.rejected++
			}
			pr.latencyMS = append(pr.latencyMS, math.Inf(1))
		case !bytes.Equal(r.payload, s.cold[idx[i]]):
			pr.failed++
			pr.mismatched++
			pr.latencyMS = append(pr.latencyMS, math.Inf(1))
			logf("%s: warm result differs from the cold response", s.reqs[idx[i]].name)
		default:
			pr.ok++
			pr.latencyMS = append(pr.latencyMS, float64(r.result.Sub(r.due))/1e6)
			if r.result.After(last) {
				last = r.result
			}
		}
	}
	pr.wall = last.Sub(start).Seconds()
	// A growing backlog shows as later requests waiting longer: the
	// median of the last third exceeds twice that of the first third.
	if n := len(pr.latencyMS); n >= 6 {
		first, lastThird := pr.latencyMS[:n/3], pr.latencyMS[n-n/3:]
		pr.growing = median(lastThird) > 2*median(first)
	}
	return pr
}

func runServeWarm(rc *runCtx) (*outcome, error) {
	var setups []float64
	var s *server
	for i := 0; i < serveSetups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = startServer(rc, i); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	rng := rand.New(rand.NewSource(rc.seed))
	out := &outcome{}

	if !rc.trace {
		u := &unitStats{}
		builds, passes := horizon.BuildCount(), field.StatsPassCount()
		var ref *phaseResult
		var phases []*phaseResult
		maxRate := 0.0
		for _, rate := range serveRates {
			var pr *phaseResult
			if rate == serveRefRate {
				_ = u.measureUnit(func() error {
					pr = s.runPhase(rng, rate, refRounds(rc.budget, len(s.reqs)), nil)
					return nil
				})
				ref = pr
			} else {
				pr = s.runPhase(rng, rate, serveProbeRnd, nil)
			}
			phases = append(phases, pr)
			if !pr.passes() {
				break
			}
			// The measured completion rate of the highest fixed rate
			// that met the limit: requests answered per second of the
			// phase's wall time.
			maxRate = float64(pr.ok) / pr.wall
		}
		out.attempted, out.failed = len(s.reqs), 0
		for _, pr := range phases {
			// Load failures count where the schedule is below
			// saturation (up to the reference rate); wrong outputs
			// count at every rate.
			out.attempted += len(pr.results)
			if pr.rate <= serveRefRate {
				out.failed += pr.failed
			} else {
				out.failed += pr.mismatched
			}
		}
		b, p := horizon.BuildCount()-builds, field.StatsPassCount()-passes
		out.attempted++
		if b != 0 || p != 0 {
			out.failed++
			logf("warm phase ray-marched %d horizons and ran %d stats passes (want 0 and 0)", b, p)
		}
		if ref == nil {
			return nil, errors.New("reference rate not reached")
		}
		u.opsMS = ref.latencyMS
		v := e2eFromUnits(u, setups)
		v["run_s"] = ref.wall
		v["max_rate_rps"] = maxRate
		v["success_ratio"] = successRatio(out.attempted, out.failed)
		out.metrics = fill(endToEnd, v)
		out.reportOnly = reportOnly(u)
		var b2 strings.Builder
		fmt.Fprintf(&b2, "serve-warm: %d distinct requests over %d tiles; open loop, latency limit p99 <= %.0f ms\n",
			len(s.reqs), serveTiles, serveLimitMS)
		for _, pr := range phases {
			fmt.Fprintf(&b2, "  rate %5.1f/s: %3d sent, %3d ok, %d failed (%d rejected), p50 %.1f ms, p90 %.1f ms, p99 %.1f ms, lag p99 %.1f ms, growing=%t, pass=%t\n",
				pr.rate, len(pr.results), pr.ok, pr.failed, pr.rejected, pr.p(0.5), pr.p(0.9), pr.p(0.99),
				quantile(pr.lagMS, 0.99), pr.growing, pr.passes())
		}
		out.report = b2.String() + unitLine(u) + renderMetrics("end-to-end", out.metrics)
		return out, nil
	}
	return serveTraced(rc, s, rng, out)
}

// serveTraced is the traced serve-warm run: an untraced reference
// phase (the overhead baseline), a traced one with per-request spans
// from each stream's event timeline and /healthz sampling, then a warm
// replay of every distinct district request through a cache handle on
// the server's cache directory.
func serveTraced(rc *runCtx, s *server, rng *rand.Rand, out *outcome) (*outcome, error) {
	untraced := s.runPhase(rng, serveRefRate, refRounds(rc.budget, len(s.reqs)), nil)
	// /healthz polls use their own connection so they never queue
	// behind the load generator's streams.
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	health := func() serve.Health {
		var h serve.Health
		resp, err := hc.Get(s.base + "/healthz")
		if err != nil {
			return h
		}
		defer resp.Body.Close()
		_ = json.NewDecoder(resp.Body).Decode(&h)
		return h
	}
	tr := newTracer()
	h0 := health()
	stop, sampled := make(chan struct{}), make(chan int)
	go func() {
		waiting := 0
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				sampled <- waiting
				return
			case <-t.C:
				if h := health(); h.Queued > waiting {
					waiting = h.Queued
				}
			}
		}
	}()
	builds, passes := horizon.BuildCount(), field.StatsPassCount()
	rt0 := readRuntime()
	traced := s.runPhase(rng, serveRefRate, refRounds(rc.budget, len(s.reqs)), func(i int, r reqResult) {
		group := fmt.Sprintf("req-%d", i)
		end := r.result
		if end.IsZero() {
			end = time.Now()
		}
		root := tr.record("serve.request", group, 0, r.due, end, int64(r.bytes))
		tr.record("loadgen.lag", group, root, r.due, r.sent, 0)
		if r.headers.IsZero() {
			return
		}
		tr.record("serve.ttfb", group, root, r.sent, r.headers, 0)
		if !r.firstExtracted.IsZero() && !r.lastPlanned.IsZero() && !r.result.IsZero() {
			tr.record("serve.extract", group, root, r.headers, r.firstExtracted, 0)
			tr.record("serve.plan", group, root, r.firstExtracted, r.lastPlanned, 0)
			tr.record("serve.tail", group, root, r.lastPlanned, r.result, 0)
		}
	})
	rt1 := readRuntime()
	close(stop)
	waitingMax := <-sampled
	h1 := health()

	v := map[string]float64{
		"horizon.builds":     float64(horizon.BuildCount() - builds),
		"field.stats_passes": float64(field.StatsPassCount() - passes),
		"go.alloc_mb":        float64(rt1.AllocBytes-rt0.AllocBytes) / (1 << 20),
		"go.gc_count":        float64(rt1.GCCount - rt0.GCCount),
		"go.gc_pause_ms":     (rt1.PauseSec - rt0.PauseSec) * 1e3,
		"trace.overhead_pct": 100 * (traced.p(0.5) - untraced.p(0.5)) / untraced.p(0.5),
		"serve.rejected":     float64(traced.rejected),
		"serve.waiting_max":  float64(waitingMax),
		"loadgen.sent":       float64(len(traced.results)),
		"loadgen.ok":         float64(traced.ok),
		"loadgen.failed":     float64(traced.failed),
		"loadgen.lag_p99_ms": quantile(traced.lagMS, 0.99),
	}
	out.attempted = len(traced.results) + 1
	out.failed = traced.failed
	if v["horizon.builds"] != 0 || v["field.stats_passes"] != 0 {
		out.failed++
		logf("warm phase ray-marched %v horizons and ran %v stats passes (want 0 and 0)", v["horizon.builds"], v["field.stats_passes"])
	}
	if h0.Cache != nil && h1.Cache != nil {
		hits, misses := h1.Cache.Hits-h0.Cache.Hits, h1.Cache.Misses-h0.Cache.Misses
		if hits+misses > 0 {
			v["fieldcache.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		v["fieldcache.corrupt"] = float64(h1.Cache.Corrupt - h0.Cache.Corrupt)
	}
	var ttfb, firstEx, tail, kb []float64
	for _, r := range traced.results {
		if r.err != nil {
			continue
		}
		ttfb = append(ttfb, float64(r.headers.Sub(r.sent))/1e6)
		firstEx = append(firstEx, float64(r.firstExtracted.Sub(r.sent))/1e6)
		tail = append(tail, float64(r.result.Sub(r.lastPlanned))/1e6)
		kb = append(kb, float64(r.bytes)/1e3)
	}
	v["serve.ttfb_ms"] = median(ttfb)
	v["serve.first_extracted_ms"] = median(firstEx)
	v["serve.tail_ms"] = median(tail)
	v["serve.result_kb"] = median(kb)
	reqRows, reqWall, reqOverlap := tr.selfTimes("serve.request")
	v["trace.unattributed_s"] = selfOf(reqRows, "serve.request")

	// Warm replay of the district requests through the server's cache
	// directory with a traced filesystem seam.
	st := newStageStats()
	sc := &scope{}
	cache, err := fieldcache.OpenTiered(fieldcache.Config{Dir: filepath.Join(s.dir, "cache"), FS: &tracedFS{FS: faultfs.OS(), tr: tr, sc: sc}})
	if err != nil {
		return nil, err
	}
	root := tr.open("replay", "replay", 0)
	replayed := 0
	for i, rq := range s.reqs {
		if rq.path != "/v1/district" {
			continue
		}
		tile, nodata, err := gis.LoadRaster(bytes.NewReader(s.tiles[rq.tile]))
		if err != nil {
			return nil, err
		}
		group := fmt.Sprintf("replay-%d", i)
		parent := tr.open("replay.request", group, root)
		sc.set(parent, group)
		p := replayPlan{fast: true, cache: cache, strategy: rq.strategy, econ: rq.econ, tr: tr, parent: parent, group: group}
		if rq.strategy == "anneal" {
			p.iterations = annealIters
		}
		roofs, err := replayTile(p, st, tile, nodata, district.Options{}, geom.Cell{})
		tr.close(parent)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", rq.name, err)
		}
		var rep pvfloor.DistrictReport
		if err := json.Unmarshal(s.cold[i], &rep); err != nil {
			return nil, err
		}
		out.attempted++
		if err := compareRoofs(roofs, rep.Roofs); err != nil {
			out.failed++
			logf("replay %s: %v", rq.name, err)
		}
		replayed++
	}
	tr.close(root)
	repRows, repWall, repOverlap := tr.selfTimes("replay")
	for k, x := range layerValues(repRows, st) {
		v[k] = x
	}
	v["blobstore.read_s"] = selfOf(repRows, "blobstore.read")
	v["blobstore.read_mb"] = bytesOf(repRows, "blobstore.read")
	v["blobstore.write_s"] = selfOf(repRows, "blobstore.write")
	v["blobstore.write_mb"] = bytesOf(repRows, "blobstore.write")
	v["blobstore.fsync_s"] = selfOf(repRows, "blobstore.fsync")
	v["trace.unattributed_s"] += selfOf(repRows, "replay", "replay.request")
	out.metrics = fill(perLayer, v)
	out.tr = tr
	out.report = fmt.Sprintf("serve-warm traced run at %.0f/s: p50 untraced %.1f ms, traced %.1f ms (tracing overhead %+.1f%%)\n",
		serveRefRate, untraced.p(0.5), traced.p(0.5), v["trace.overhead_pct"]) +
		"-- requests (client-side event timeline; shares are of summed request latency) --\n" +
		layerTable(reqRows, reqWall, reqOverlap) +
		fmt.Sprintf("-- warm serial replay of %d district requests (outputs checked equal to the cold responses) --\n", replayed) +
		replayTable(repRows, repWall, repOverlap, st) +
		renderMetrics("per-layer", out.metrics)
	return out, nil
}
