package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	pvfloor "repro"
	"repro/internal/dsm"
	"repro/internal/gis"
	"repro/internal/solar/horizon"
)

// ndjsonLines splits a streamed body into decoded event lines,
// failing on any line that is not a standalone JSON object.
func ndjsonLines(t *testing.T, body string) []map[string]json.RawMessage {
	t.Helper()
	var lines []map[string]json.RawMessage
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not a JSON object: %v\n%s", i, err, line)
		}
		if _, ok := obj["event"]; !ok {
			t.Fatalf("line %d has no event discriminator: %s", i, line)
		}
		lines = append(lines, obj)
	}
	return lines
}

func eventOf(t *testing.T, obj map[string]json.RawMessage) string {
	t.Helper()
	var ev string
	if err := json.Unmarshal(obj["event"], &ev); err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestBatchStreamFraming pins the NDJSON contract of /v1/batch: one
// parseable "run" event per run (each index exactly once), then one
// final "result" event carrying every report in input order.
func TestBatchStreamFraming(t *testing.T) {
	s := newTestServer(t, Options{})
	body := `{"runs":[
		{"scenario":"residential","modules":8},
		{"scenario":"residential","modules":16},
		{"scenario":"residential","modules":8,"optimizer":{"strategy":"multistart","seed":1}}
	]}`
	w := postJSON(t, s, "/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := ndjsonLines(t, w.Body.String())
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 run events + 1 result", len(lines))
	}
	seen := map[int]bool{}
	for _, obj := range lines[:3] {
		if ev := eventOf(t, obj); ev != "run" {
			t.Fatalf("progress event = %q, want run", ev)
		}
		var re RunEvent
		line, _ := json.Marshal(obj)
		if err := json.Unmarshal(line, &re); err != nil {
			t.Fatal(err)
		}
		if re.Error != "" {
			t.Fatalf("run %d failed: %s", re.Index, re.Error)
		}
		if re.ProposedMWh <= 0 || re.GPctDigest == "" {
			t.Fatalf("run event missing energies/digest: %+v", re)
		}
		if seen[re.Index] {
			t.Fatalf("index %d reported twice", re.Index)
		}
		seen[re.Index] = true
	}
	if eventOf(t, lines[3]) != "result" {
		t.Fatalf("last event = %q, want result", eventOf(t, lines[3]))
	}
	var final BatchResultEvent
	line, _ := json.Marshal(lines[3])
	if err := json.Unmarshal(line, &final); err != nil {
		t.Fatal(err)
	}
	if len(final.Runs) != 3 {
		t.Fatalf("result has %d runs, want 3", len(final.Runs))
	}
	// Input order, and the two identical configs agree exactly (one
	// shared field group).
	if final.Runs[0].Modules != 8 || final.Runs[1].Modules != 16 || final.Runs[2].Modules != 8 {
		t.Fatalf("result order drifted: %+v", final.Runs)
	}
	if final.Runs[0].GPctDigest != final.Runs[1].GPctDigest {
		t.Errorf("shared-field digests differ: %s vs %s", final.Runs[0].GPctDigest, final.Runs[1].GPctDigest)
	}
}

// loadTileASC reads the committed neighborhood fixture as request
// payload text.
func loadTileASC(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "district", "neighborhood.asc"))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func parseTile(t *testing.T, asc string) *dsm.Raster {
	t.Helper()
	tile, _, err := gis.LoadRaster(strings.NewReader(asc))
	if err != nil {
		t.Fatal(err)
	}
	return tile
}

// districtGolden mirrors the committed rundistrict_neighborhood.json
// schema (see golden_test.go at the repository root).
type districtGolden struct {
	GroundZ float64 `json:"ground_z"`
	Ranked  []int   `json:"ranked"`
	Roofs   []struct {
		ID     int `json:"id"`
		Golden struct {
			Modules    int    `json:"modules"`
			GPctDigest string `json:"gpct_digest"`
			Proposed   struct {
				NetMWh       float64 `json:"net_mwh"`
				WiringExtraM float64 `json:"wiring_extra_m"`
			} `json:"proposed"`
			Traditional struct {
				NetMWh float64 `json:"net_mwh"`
			} `json:"traditional"`
			GainPct float64 `json:"gain_pct"`
		} `json:"Golden"`
	} `json:"roofs"`
}

func loadDistrictGolden(t *testing.T) districtGolden {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "rundistrict_neighborhood.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g districtGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// districtStream posts one district request over the committed tile
// and returns the decoded stream lines.
func districtStream(t *testing.T, s *Server, tileASC string) []map[string]json.RawMessage {
	t.Helper()
	req, err := json.Marshal(DistrictRequest{TileASC: tileASC})
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, s, "/v1/district", string(req))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	return ndjsonLines(t, w.Body.String())
}

// checkDistrictResult asserts a final stream payload against the
// golden corpus (float-exact energies, ranking normalised through the
// per-roof rank field) and returns the raw district payload.
func checkDistrictResult(t *testing.T, lines []map[string]json.RawMessage) json.RawMessage {
	t.Helper()
	golden := loadDistrictGolden(t)

	last := lines[len(lines)-1]
	if ev := eventOf(t, last); ev != "result" {
		t.Fatalf("last event = %q, want result", ev)
	}
	var rep pvfloor.DistrictReport
	if err := json.Unmarshal(last["district"], &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Roofs) != len(golden.Roofs) {
		t.Fatalf("%d roofs, golden has %d", len(rep.Roofs), len(golden.Roofs))
	}
	if rep.GroundZ != golden.GroundZ {
		t.Errorf("ground_z = %v, golden %v", rep.GroundZ, golden.GroundZ)
	}
	for i, g := range golden.Roofs {
		r := rep.Roofs[i]
		if r.ID != g.ID {
			t.Fatalf("roof[%d].id = %d, golden %d", i, r.ID, g.ID)
		}
		if r.Modules != g.Golden.Modules {
			t.Errorf("roof %d modules = %d, golden %d", r.ID, r.Modules, g.Golden.Modules)
		}
		if r.ProposedMWh != g.Golden.Proposed.NetMWh {
			t.Errorf("roof %d proposed_mwh = %v, golden %v", r.ID, r.ProposedMWh, g.Golden.Proposed.NetMWh)
		}
		if r.TraditionalMWh != g.Golden.Traditional.NetMWh {
			t.Errorf("roof %d traditional_mwh = %v, golden %v", r.ID, r.TraditionalMWh, g.Golden.Traditional.NetMWh)
		}
		if r.GainPct == nil {
			t.Errorf("roof %d gain_pct absent, golden %v", r.ID, g.Golden.GainPct)
		} else if *r.GainPct != g.Golden.GainPct {
			t.Errorf("roof %d gain_pct = %v, golden %v", r.ID, *r.GainPct, g.Golden.GainPct)
		}
		if r.WiringExtraM != g.Golden.Proposed.WiringExtraM {
			t.Errorf("roof %d wiring_extra_m = %v, golden %v", r.ID, r.WiringExtraM, g.Golden.Proposed.WiringExtraM)
		}
	}
	// The ranking is pinned ordering-normalised: golden.Ranked lists
	// plan indices best-first; the report carries it as per-roof rank.
	for k, pi := range golden.Ranked {
		if rep.Roofs[pi].Rank != k+1 {
			t.Errorf("roof index %d rank = %d, golden rank %d", pi, rep.Roofs[pi].Rank, k+1)
		}
	}
	return last["district"]
}

// TestDistrictStreamMatchesGolden runs a streamed district sweep over
// the committed neighborhood tile and pins the stream contract: every
// roof announces extraction, every roof reports planning with its
// statistics digest, and the final ranked result is float-exact
// against the golden corpus and byte-equivalent to the library's own
// DistrictReport (the struct cmd/pvdistrict -json prints).
func TestDistrictStreamMatchesGolden(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir()})
	asc := loadTileASC(t)
	lines := districtStream(t, s, asc)
	golden := loadDistrictGolden(t)

	var extracted, planned []DistrictRoofEvent
	for _, obj := range lines[:len(lines)-1] {
		raw, _ := json.Marshal(obj)
		var ev DistrictRoofEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatal(err)
		}
		switch eventOf(t, obj) {
		case "roof-extracted":
			extracted = append(extracted, ev)
		case "roof-planned":
			planned = append(planned, ev)
		default:
			t.Fatalf("unexpected event %q mid-stream", eventOf(t, obj))
		}
	}
	if len(extracted) != len(golden.Roofs) || len(planned) != len(golden.Roofs) {
		t.Fatalf("%d extracted + %d planned events, want %d each",
			len(extracted), len(planned), len(golden.Roofs))
	}
	// Extraction events stream in roof order, before any planning of
	// the same roof; planned events carry the golden digest.
	for i, ev := range extracted {
		if ev.Index != i {
			t.Errorf("extracted[%d].index = %d", i, ev.Index)
		}
	}
	for _, ev := range planned {
		if ev.Run == nil || ev.Run.Error != "" {
			t.Fatalf("planned event without successful run: %+v", ev)
		}
		if got, want := ev.Run.GPctDigest, golden.Roofs[ev.Index].Golden.GPctDigest; got != want {
			t.Errorf("roof index %d stream digest = %s, golden %s", ev.Index, got, want)
		}
	}

	rawDistrict := checkDistrictResult(t, lines)

	// Byte-equivalence with the library (and hence pvdistrict -json):
	// the same tile through RunDistrict marshals to the identical
	// district payload.
	res, err := pvfloor.RunDistrict(pvfloor.DistrictConfig{Tile: parseTile(t, asc)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(pvfloor.NewDistrictReport(res))
	if err != nil {
		t.Fatal(err)
	}
	var compacted bytes.Buffer
	if err := json.Compact(&compacted, rawDistrict); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compacted.Bytes(), want) {
		t.Errorf("streamed district payload is not byte-equivalent to the library report\nstream:  %s\nlibrary: %s",
			compacted.Bytes(), want)
	}
}

// TestDistrictStreamWarmCacheSkipsHorizonBuild pins the serve-side
// payoff of the tile-level horizon artifact: once a first streamed
// district request has populated the shared cache directory, a second
// request over the same tile must restore the one tile horizon from
// disk instead of ray-marching anything — a zero global BuildCount
// delta — while still producing the golden-exact result.
func TestDistrictStreamWarmCacheSkipsHorizonBuild(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir()})
	asc := loadTileASC(t)
	checkDistrictResult(t, districtStream(t, s, asc)) // warm the cache

	before := horizon.BuildCount()
	checkDistrictResult(t, districtStream(t, s, asc))
	if d := horizon.BuildCount() - before; d != 0 {
		t.Errorf("warm district request ray-marched %d horizon maps, want 0 (tile artifact reuse)", d)
	}
}

// TestDistrictStreamConcurrentDeterminism launches two simultaneous
// district runs over the same tile and one shared artifact-cache
// directory: both final results must be identical (and match the
// golden corpus), regardless of how the runs raced the cache and the
// job pool. Run under -race this also proves the stream/pool/cache
// plumbing is data-race free.
func TestDistrictStreamConcurrentDeterminism(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir(), MaxConcurrentRuns: 2})
	asc := loadTileASC(t)

	var wg sync.WaitGroup
	results := make([]json.RawMessage, 2)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lines := districtStream(t, s, asc)
			results[i] = checkDistrictResult(t, lines)
		}()
	}
	wg.Wait()
	var a, b bytes.Buffer
	if err := json.Compact(&a, results[0]); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, results[1]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("concurrent district runs diverged:\nA: %s\nB: %s", a.Bytes(), b.Bytes())
	}
}

// disconnectingWriter simulates a streaming client that goes away:
// after `after` roof-planned lines it cancels the request context,
// exactly what net/http does when the peer closes the connection.
type disconnectingWriter struct {
	header http.Header
	buf    bytes.Buffer
	cancel context.CancelFunc
	after  int
	seen   int
}

func (w *disconnectingWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *disconnectingWriter) WriteHeader(int) {}
func (w *disconnectingWriter) Flush()          {}

func (w *disconnectingWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	if bytes.Contains(p, []byte(`"roof-planned"`)) {
		w.seen++
		if w.seen == w.after {
			w.cancel()
		}
	}
	return len(p), nil
}

// TestDistrictStreamClientDisconnect cancels the request context
// after the first roof-planned event (a mid-stream client disconnect)
// and asserts the batch fan-out actually stops: no further roofs are
// planned, no final result is emitted, and the stream terminates with
// an error event naming the cancellation.
func TestDistrictStreamClientDisconnect(t *testing.T) {
	// Concurrency 1 serialises the roof runs, so cancelling after the
	// first completion leaves at most one more (already in flight) to
	// finish — the remaining roofs must never run.
	s := newTestServer(t, Options{MaxConcurrentRuns: 1, QueueDepth: 1, Concurrency: 1, FieldWorkers: 1})
	asc := loadTileASC(t)
	body, err := json.Marshal(DistrictRequest{TileASC: asc})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &disconnectingWriter{cancel: cancel, after: 1}
	req := httptest.NewRequest(http.MethodPost, "/v1/district", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	s.ServeHTTP(w, req) // returns only once the run has wound down

	lines := ndjsonLines(t, w.buf.String())
	totalRoofs := len(loadDistrictGolden(t).Roofs)
	var planned, abandoned int
	var sawError, sawResult bool
	for _, obj := range lines {
		switch eventOf(t, obj) {
		case "roof-planned":
			// Every roof gets a terminal event; abandoned ones carry
			// the cancellation as their run error.
			var ev DistrictRoofEvent
			raw, _ := json.Marshal(obj)
			if err := json.Unmarshal(raw, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Run != nil && strings.Contains(ev.Run.Error, "context canceled") {
				abandoned++
			} else {
				planned++
			}
		case "result":
			sawResult = true
		case "error":
			sawError = true
			var ee ErrorEvent
			raw, _ := json.Marshal(obj)
			if err := json.Unmarshal(raw, &ee); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(ee.Error, "context canceled") {
				t.Errorf("error event = %q, want context cancellation", ee.Error)
			}
		}
	}
	if sawResult {
		t.Error("cancelled stream still produced a final result")
	}
	if !sawError {
		t.Error("cancelled stream ended without an error event")
	}
	// The disconnect lands after roof 1 completes; with a serial pool
	// at most the roof already in flight may still finish. The rest
	// must have been abandoned, not simulated.
	if planned >= totalRoofs {
		t.Errorf("%d roofs fully planned after mid-stream disconnect, want < %d", planned, totalRoofs)
	}
	if abandoned == 0 {
		t.Error("no roof runs were abandoned by the cancellation")
	}
	if planned+abandoned != totalRoofs {
		t.Errorf("planned %d + abandoned %d != %d roofs (terminal events lost)",
			planned, abandoned, totalRoofs)
	}
}
