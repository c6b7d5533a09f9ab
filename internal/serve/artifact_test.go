package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	pvfloor "repro"
	"repro/internal/blobstore"
	"repro/internal/jobs"
	"repro/internal/solar/horizon"
	"repro/internal/tilestore"
)

// This file is the serve slice of the artifact-store layer: the tile
// upload API and tile_ref requests (pinned byte-equal to inline
// tile_asc, synchronously and across a job kill-and-resume), the
// remote blob tier (a peer-warmed run ray-marches nothing; a dead or
// lying remote degrades to recompute with byte-identical results),
// and the unified {"error":{"code","message"}} envelope across every
// /v1 endpoint.

// uploadTile posts raw bytes to /v1/tiles and returns the 201 info.
func uploadTile(t *testing.T, s *Server, body []byte) tilestore.Info {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/tiles", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		t.Fatalf("POST /v1/tiles = %d: %s", w.Code, w.Body)
	}
	var info tilestore.Info
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func gzipBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTileUploadAPI pins the upload surface: a plain and a gzipped
// copy of one grid converge on the same content-derived tile_ref with
// a full census in the 201 body, garbage is a 400 before anything is
// stored, and the stored-tile count surfaces in /healthz.
func TestTileUploadAPI(t *testing.T) {
	s := newTestServer(t, Options{TilesDir: t.TempDir()})
	asc := []byte(loadTileASC(t))

	plain := uploadTile(t, s, asc)
	if plain.Ref == "" || !strings.HasPrefix(plain.Ref, "asc-") {
		t.Fatalf("tile_ref = %q, want asc-<hex>", plain.Ref)
	}
	if plain.Cells != plain.NCols*plain.NRows || plain.Cells == 0 {
		t.Errorf("cells = %d for %dx%d grid", plain.Cells, plain.NCols, plain.NRows)
	}
	if plain.Checksum == "" {
		t.Error("201 body missing checksum")
	}
	zipped := uploadTile(t, s, gzipBytes(t, asc))
	if zipped.Ref != plain.Ref {
		t.Errorf("gzipped upload ref %s, plain %s — content addressing must converge", zipped.Ref, plain.Ref)
	}

	// Garbage, a fractional ncols, and a 38-byte header that claims
	// two billion columns: each is a 400 before anything is stored or
	// allocated, and the server keeps serving.
	for _, body := range []string{
		"not a grid",
		"ncols 2.7\nnrows 1\ncellsize 1\n1 2\n",
		"ncols 2000000000\nnrows 1\ncellsize 1\n0\n",
	} {
		w := postJSON(t, s, "/v1/tiles", body)
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); w.Code != http.StatusBadRequest || err != nil || eb.Error.Code != "invalid_request" {
			t.Errorf("upload %q = %d, want 400 invalid_request (%s)", body, w.Code, w.Body)
		}
	}

	var h Health
	if err := json.Unmarshal(getJSON(t, s, "/healthz").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Tiles == nil || h.Tiles.Count != 1 {
		t.Errorf("healthz tiles = %+v, want count 1 (dedup across plain+gzip)", h.Tiles)
	}
}

// TestTileUploadRejectsNonFinite: a grid with a non-finite cell size or
// an infinite height is a 400 naming the key or the cell, and nothing
// is stored. Such a grid used to load, and one +Inf cell gave every
// cell within shadow reach an infinite horizon.
func TestTileUploadRejectsNonFinite(t *testing.T) {
	s := newTestServer(t, Options{TilesDir: t.TempDir()})
	for _, tc := range []struct{ body, msgHas string }{
		{"ncols 2\nnrows 1\ncellsize nan\n1 2\n", "cellsize"},
		{"ncols 2\nnrows 1\ncellsize inf\n1 2\n", "cellsize"},
		{"ncols 2\nnrows 2\ncellsize 0.2\n1 2\n3 inf\n", "row 1 col 1"},
		{"ncols 2\nnrows 2\ncellsize 0.2\n-Infinity 2\n3 4\n", "row 0 col 0"},
	} {
		w := postJSON(t, s, "/v1/tiles", tc.body)
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); w.Code != http.StatusBadRequest || err != nil ||
			eb.Error.Code != "invalid_request" || !strings.Contains(eb.Error.Message, tc.msgHas) {
			t.Errorf("upload %q = %d %s, want 400 invalid_request naming %q", tc.body, w.Code, w.Body, tc.msgHas)
		}
	}
	var h Health
	if err := json.Unmarshal(getJSON(t, s, "/healthz").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Tiles != nil && h.Tiles.Count != 0 {
		t.Errorf("healthz tiles = %+v after rejected uploads, want none stored", h.Tiles)
	}
}

// TestTileUploadSurfaceAgreement pins one verdict per grid on every
// ingestion surface: inline tile_asc on /v1/district and /v1/city and
// an upload to /v1/tiles all answer 400, or all accept the grid. An
// accepted grid's district and city reports equal the same grid's
// tile_ref runs byte for byte.
func TestTileUploadSurfaceAgreement(t *testing.T) {
	s := newTestServer(t, Options{TilesDir: t.TempDir()})
	asc := loadTileASC(t)
	lines := strings.SplitAfter(asc, "\n")
	const row0 = 6 // the fixture's first data line, after its header
	edit := func(f func(ls []string)) string {
		ls := append([]string(nil), lines...)
		f(ls)
		return strings.Join(ls, "")
	}

	cases := []struct {
		name   string
		inline string // tile_asc text
		upload []byte // POST /v1/tiles body
		ok     bool
	}{
		{name: "split rows", inline: edit(func(ls []string) {
			ls[row0] = strings.Replace(ls[row0], " ", "\n", 1)
		})},
		{name: "ragged rows", inline: edit(func(ls []string) {
			ls[row0] = "0 " + ls[row0]
			ls[row0+1] = strings.TrimPrefix(ls[row0+1], "0 ")
		})},
		{name: "fractional ncols", inline: "ncols 2.7\nnrows 1\ncellsize 1\n1 2\n"},
		{name: "crlf", inline: strings.ReplaceAll(asc, "\n", "\r\n"), ok: true},
		{name: "nodata and nan cells", inline: edit(func(ls []string) {
			ls[row0] = "-9999 nan " + strings.TrimPrefix(ls[row0], "0 0 ")
		}), ok: true},
		// A JSON string cannot carry the binary stream, so the inline
		// surfaces send the text that the gzipped upload inflates to.
		{name: "gzipped", inline: asc, upload: gzipBytes(t, []byte(asc)), ok: true},
	}
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return w
	}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// results runs a district and a city sweep over dr and returns
	// their response recorders.
	results := func(dr DistrictRequest) (district, city *httptest.ResponseRecorder) {
		return post("/v1/district", mustJSON(dr)),
			post("/v1/city", mustJSON(CityRequest{DistrictRequest: dr, TileCells: 80}))
	}
	// final returns the named payload of a stream's result event.
	final := func(t *testing.T, w *httptest.ResponseRecorder, key string) []byte {
		t.Helper()
		lines := ndjsonLines(t, w.Body.String())
		last := lines[len(lines)-1]
		if ev := eventOf(t, last); ev != "result" {
			t.Fatalf("last event = %q, want result: %s", ev, w.Body)
		}
		var out bytes.Buffer
		if err := json.Compact(&out, last[key]); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			upload := tc.upload
			if upload == nil {
				upload = []byte(tc.inline)
			}
			district, city := results(DistrictRequest{TileASC: tc.inline})
			up := post("/v1/tiles", upload)
			want := map[bool][3]int{false: {400, 400, 400}, true: {200, 200, 201}}[tc.ok]
			if got := [3]int{district.Code, city.Code, up.Code}; got != want {
				t.Fatalf("district/city/upload = %v, want %v\ndistrict: %.200s\ncity: %.200s\nupload: %.200s",
					got, want, district.Body, city.Body, up.Body)
			}
			if !tc.ok {
				return
			}
			var info tilestore.Info
			if err := json.Unmarshal(up.Body.Bytes(), &info); err != nil {
				t.Fatal(err)
			}
			refDistrict, refCity := results(DistrictRequest{TileRef: info.Ref})
			if a, b := final(t, district, "district"), final(t, refDistrict, "district"); !bytes.Equal(a, b) {
				t.Errorf("inline district report differs from tile_ref:\ninline: %s\nref:    %s", a, b)
			}
			if a, b := final(t, city, "city"), final(t, refCity, "city"); !bytes.Equal(a, b) {
				t.Errorf("inline city report differs from tile_ref:\ninline: %s\nref:    %s", a, b)
			}
		})
	}
}

// TestTileRefDistrictEquivalence pins acceptance: a district request
// naming an uploaded tile by tile_ref streams a final result
// byte-identical to the same tile shipped inline as tile_asc.
func TestTileRefDistrictEquivalence(t *testing.T) {
	s := newTestServer(t, Options{TilesDir: t.TempDir()})
	asc := loadTileASC(t)
	info := uploadTile(t, s, []byte(asc))

	inline := checkDistrictResult(t, districtStream(t, s, asc))

	req, err := json.Marshal(DistrictRequest{TileRef: info.Ref})
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, s, "/v1/district", string(req))
	if w.Code != http.StatusOK {
		t.Fatalf("tile_ref district = %d: %s", w.Code, w.Body)
	}
	byRef := checkDistrictResult(t, ndjsonLines(t, w.Body.String()))

	var a, b bytes.Buffer
	if err := json.Compact(&a, inline); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, byRef); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("tile_ref result differs from inline tile_asc:\nref:    %s\ninline: %s", b.Bytes(), a.Bytes())
	}
}

// TestTileRefCityEquivalence pins the out-of-core side of the same
// acceptance: a city sweep over a tile_ref — served through the
// windowed reader on the stored gzipped upload — is byte-identical to
// the in-memory tile_asc sweep.
func TestTileRefCityEquivalence(t *testing.T) {
	s := newTestServer(t, Options{TilesDir: t.TempDir()})
	asc := loadTileASC(t)
	info := uploadTile(t, s, []byte(asc))

	inline := cityStream(t, s, CityRequest{DistrictRequest: DistrictRequest{TileASC: asc}, TileCells: 80})
	byRef := cityStream(t, s, CityRequest{DistrictRequest: DistrictRequest{TileRef: info.Ref}, TileCells: 80})

	got := remarshal(t, byRef[len(byRef)-1]["city"])
	want := remarshal(t, inline[len(inline)-1]["city"])
	if !bytes.Equal(got, want) {
		t.Errorf("tile_ref city result differs from inline tile_asc:\nref:    %s\ninline: %s", got, want)
	}
}

// TestTileRefJobKillResume pins the async half of the tile_ref
// acceptance: a job submitted by tile_ref survives a mid-run shutdown
// — the manifest persists only the ref — and the resumed job on a
// fresh server over the same stores re-opens the uploaded tile and
// finishes with a result byte-identical to an uninterrupted inline
// tile_asc run.
func TestTileRefJobKillResume(t *testing.T) {
	jobsDir, tilesDir := t.TempDir(), t.TempDir()
	store, err := jobs.Open(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Jobs: store, TilesDir: tilesDir})
	asc := loadTileASC(t)
	info := uploadTile(t, s, []byte(asc))

	started := make(chan struct{})
	var once sync.Once
	s.cityHook = func(cfg *pvfloor.CityConfig) {
		inner := cfg.TileFault
		cfg.TileFault = func(tile, attempt int) error {
			once.Do(func() { close(started) })
			time.Sleep(50 * time.Millisecond)
			if inner != nil {
				return inner(tile, attempt)
			}
			return nil
		}
	}
	m := submitCityJob(t, s, CityRequest{DistrictRequest: DistrictRequest{TileRef: info.Ref}, TileCells: 80})
	<-started
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("graceful shutdown = %v", err)
	}

	store2, err := jobs.Open(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Options{Jobs: store2, TilesDir: tilesDir})
	if n := s2.ResumeJobs(); n != 1 {
		t.Fatalf("ResumeJobs = %d, want 1", n)
	}
	waitFor(t, "resumed tile_ref job", func() bool {
		return jobManifest(t, s2, m.ID).State == jobs.Done
	})
	w := getJSON(t, s2, "/v1/jobs/"+m.ID+"/result")
	if w.Code != http.StatusOK {
		t.Fatalf("resumed result = %d: %s", w.Code, w.Body)
	}
	syncLines := cityStream(t, s2, CityRequest{DistrictRequest: DistrictRequest{TileASC: asc}, TileCells: 80})
	got := remarshal(t, w.Body.Bytes())
	want := remarshal(t, syncLines[len(syncLines)-1]["city"])
	if !bytes.Equal(got, want) {
		t.Errorf("resumed tile_ref result differs from inline run:\nref:    %s\ninline: %s", got, want)
	}
}

// TestDistrictRemoteWarmCache pins the fleet-scale acceptance: with a
// peer's cache directory warmed by one district run and exposed at its
// /v1/blobs mount, a second server with an empty local cache and
// -cache-remote pointing at the peer serves the same request entirely
// from the remote tier — zero horizon ray-marches — with the
// golden-exact result, and /healthz attributes the traffic per tier.
func TestDistrictRemoteWarmCache(t *testing.T) {
	peer := newTestServer(t, Options{CacheDir: t.TempDir()})
	asc := loadTileASC(t)
	checkDistrictResult(t, districtStream(t, peer, asc)) // warm the peer

	peerSrv := httptest.NewServer(peer)
	defer peerSrv.Close()

	s := newTestServer(t, Options{
		CacheDir:    t.TempDir(),
		CacheRemote: peerSrv.URL + "/v1/blobs",
	})
	before := horizon.BuildCount()
	checkDistrictResult(t, districtStream(t, s, asc))
	if d := horizon.BuildCount() - before; d != 0 {
		t.Errorf("remote-warm district request ray-marched %d horizon maps, want 0", d)
	}

	var h Health
	if err := json.Unmarshal(getJSON(t, s, "/healthz").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Cache == nil || len(h.Cache.Tiers) != 2 {
		t.Fatalf("healthz cache = %+v, want local+remote tiers", h.Cache)
	}
	local, remote := h.Cache.Tiers[0], h.Cache.Tiers[1]
	if remote.Tier != "remote" || remote.Hits == 0 {
		t.Errorf("remote tier saw no hits: %+v", remote)
	}
	if local.Hits != 0 {
		t.Errorf("cold local tier reports %d hits, want 0", local.Hits)
	}
	if remote.Corrupt != 0 || remote.Errors != 0 {
		t.Errorf("healthy remote tier reports corrupt=%d errors=%d", remote.Corrupt, remote.Errors)
	}
}

// corruptBackend answers every Get with bytes that cannot pass the
// envelope verification — a remote tier that lies.
type corruptBackend struct{}

func (corruptBackend) Get(key string) ([]byte, error) { return []byte("not a cache envelope"), nil }
func (corruptBackend) Put(key string, data []byte) error {
	return nil // swallows writes: nothing is ever really stored
}
func (corruptBackend) Stat(key string) (int64, error) { return 0, blobstore.ErrNotFound }

// TestDistrictRemoteDegradation pins the fall-through acceptance: a
// remote tier that answers 500, returns corrupt bytes, or times out
// never fails a request — the run degrades to local recompute and the
// final district payload is byte-identical to a run with no remote
// tier at all. Run under -race this also exercises the tiered cache's
// concurrent counters.
func TestDistrictRemoteDegradation(t *testing.T) {
	asc := loadTileASC(t)
	baseline := newTestServer(t, Options{CacheDir: t.TempDir()})
	want := checkDistrictResult(t, districtStream(t, baseline, asc))

	slowOrBroken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(80 * time.Millisecond)
		http.Error(w, "remote tier down", http.StatusInternalServerError)
	}))
	defer slowOrBroken.Close()
	slowRemote, err := blobstore.OpenHTTP(slowOrBroken.URL, blobstore.HTTPOptions{
		Timeout: 20 * time.Millisecond, Retries: 1, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		remote blobstore.Backend
	}{
		{"server_errors_and_timeouts", slowRemote},
		{"corrupt_payloads", corruptBackend{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Options{CacheDir: t.TempDir(), RemoteCache: tc.remote})
			got := checkDistrictResult(t, districtStream(t, s, asc))
			var a, b bytes.Buffer
			if err := json.Compact(&a, want); err != nil {
				t.Fatal(err)
			}
			if err := json.Compact(&b, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("degraded run diverged from local baseline:\ndegraded: %s\nbaseline: %s", b.Bytes(), a.Bytes())
			}
			m := s.cache.Metrics()
			if len(m.Tiers) != 2 {
				t.Fatalf("tiers = %+v, want local+remote", m.Tiers)
			}
		})
	}
}

// TestErrorEnvelopeShapes is the table pinning satellite: every /v1
// endpoint (including the blob mount) answers failures with one JSON
// shape — {"error":{"code","message"}} — and a stable code vocabulary.
func TestErrorEnvelopeShapes(t *testing.T) {
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	full := newTestServer(t, Options{Jobs: store, TilesDir: t.TempDir(), CacheDir: t.TempDir()})
	bare := newTestServer(t, Options{})
	tiny := newTestServer(t, Options{MaxBodyBytes: 64})

	cases := []struct {
		name, method, path, body string
		s                        *Server
		wantStatus               int
		wantCode                 string
	}{
		{"run malformed body", http.MethodPost, "/v1/run", `{"scenario":`, full, 400, "invalid_request"},
		{"run unknown scenario", http.MethodPost, "/v1/run", `{"scenario":"roof9","modules":8}`, full, 400, "invalid_request"},
		{"batch empty", http.MethodPost, "/v1/batch", `{"runs":[]}`, full, 400, "invalid_request"},
		{"district no tile", http.MethodPost, "/v1/district", `{}`, full, 400, "invalid_request"},
		{"district unknown tile_ref", http.MethodPost, "/v1/district", `{"tile_ref":"asc-00000000deadbeef"}`, full, 404, "not_found"},
		{"city unknown tile_ref", http.MethodPost, "/v1/city", `{"tile_ref":"asc-00000000deadbeef"}`, full, 404, "not_found"},
		{"tiles invalid grid", http.MethodPost, "/v1/tiles", "not a grid", full, 400, "invalid_request"},
		{"tiles without store", http.MethodPost, "/v1/tiles", "x", bare, 503, "unavailable"},
		{"district tile_ref without store", http.MethodPost, "/v1/district", `{"tile_ref":"asc-ffff"}`, bare, 503, "unavailable"},
		{"jobs without store", http.MethodPost, "/v1/jobs", `{"city":{"demo":true}}`, bare, 503, "unavailable"},
		{"job unknown id", http.MethodGet, "/v1/jobs/nope", "", full, 404, "not_found"},
		{"job result unknown id", http.MethodGet, "/v1/jobs/nope/result", "", full, 404, "not_found"},
		{"job cancel unknown id", http.MethodPost, "/v1/jobs/nope/cancel", "", full, 404, "not_found"},
		{"jobs submit unknown tile_ref", http.MethodPost, "/v1/jobs", `{"city":{"tile_ref":"asc-00000000deadbeef"}}`, full, 404, "not_found"},
		{"body too large", http.MethodPost, "/v1/run", `{"scenario":"` + strings.Repeat("x", 128) + `"}`, tiny, 413, "body_too_large"},
		{"blob invalid key", http.MethodGet, "/v1/blobs/.hidden", "", full, 400, "invalid_request"},
		{"blob missing", http.MethodGet, "/v1/blobs/no-such-blob", "", full, 404, "not_found"},
		{"blob bad method", http.MethodDelete, "/v1/blobs/somekey", "", full, 405, "method_not_allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			tc.s.ServeHTTP(w, req)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", w.Code, tc.wantStatus, w.Body)
			}
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
				t.Fatalf("error body is not the unified envelope: %v (%s)", err, w.Body)
			}
			if eb.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q (%s)", eb.Error.Code, tc.wantCode, w.Body)
			}
			if eb.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}

	// The busy rejection keeps its distinct code so clients can tell
	// back-pressure from outage.
	if got := errorCode(http.StatusServiceUnavailable); got != "unavailable" {
		t.Errorf("errorCode(503) = %q, want unavailable", got)
	}
}
