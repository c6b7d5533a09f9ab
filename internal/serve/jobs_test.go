package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	pvfloor "repro"
	"repro/internal/jobs"
)

// This file is the serve slice of the resilience test layer: the
// async job lifecycle over HTTP, cancellation, graceful shutdown
// parking running jobs as interrupted, restart-and-resume from the
// same store, and the /v1/city mid-stream disconnect whose work an
// async job can pick up.

func getJSON(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func jobManifest(t *testing.T, s *Server, id string) jobs.Manifest {
	t.Helper()
	w := getJSON(t, s, "/v1/jobs/"+id)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s = %d: %s", id, w.Code, w.Body)
	}
	var m jobs.Manifest
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// submitCityJob posts the request as an async job and returns the 202
// manifest.
func submitCityJob(t *testing.T, s *Server, req CityRequest) jobs.Manifest {
	t.Helper()
	body, err := json.Marshal(JobRequest{City: &req})
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, s, "/v1/jobs", string(body))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	var m jobs.Manifest
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.ID == "" || m.State != jobs.Queued {
		t.Fatalf("202 manifest = %+v, want a queued job with an id", m)
	}
	return m
}

// remarshal normalises a CityReport JSON document for byte comparison.
func remarshal(t *testing.T, raw []byte) []byte {
	t.Helper()
	var rep pvfloor.CityReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJobsEndpointsWithoutStore pins the no-store contract: every job
// route answers 503 naming the missing flag instead of panicking.
func TestJobsEndpointsWithoutStore(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/jobs"},
		{http.MethodGet, "/v1/jobs"},
		{http.MethodGet, "/v1/jobs/x"},
		{http.MethodGet, "/v1/jobs/x/result"},
		{http.MethodPost, "/v1/jobs/x/cancel"},
	} {
		req := httptest.NewRequest(probe.method, probe.path, strings.NewReader("{}"))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s = %d, want 503", probe.method, probe.path, w.Code)
		}
		if !strings.Contains(w.Body.String(), "jobs-dir") {
			t.Errorf("%s %s error does not name the flag: %s", probe.method, probe.path, w.Body)
		}
	}
}

// TestJobLifecycleOverHTTP pins the async happy path: submit → 202
// with a durable queued manifest, poll to done with a full tile
// census, fetch a result byte-equivalent to the synchronous /v1/city
// stream's, and observe the store census in /healthz.
func TestJobLifecycleOverHTTP(t *testing.T) {
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Jobs: store, CacheDir: t.TempDir()})
	asc := loadTileASC(t)
	req := CityRequest{DistrictRequest: DistrictRequest{TileASC: asc}, TileCells: 80}

	syncLines := cityStream(t, s, req)
	syncCity := syncLines[len(syncLines)-1]["city"]

	m := submitCityJob(t, s, req)
	if w := getJSON(t, s, "/v1/jobs"); !strings.Contains(w.Body.String(), m.ID) {
		t.Fatalf("job list does not mention %s: %s", m.ID, w.Body)
	}
	waitFor(t, "job completion", func() bool {
		return jobManifest(t, s, m.ID).State == jobs.Done
	})
	final := jobManifest(t, s, m.ID)
	if final.Tiles != 4 || final.TilesDone() != 4 {
		t.Errorf("done manifest tiles = %d/%d, want 4/4", final.TilesDone(), final.Tiles)
	}
	if final.Started.IsZero() || final.Finished.IsZero() {
		t.Errorf("done manifest missing timestamps: %+v", final)
	}
	for _, ts := range final.TileStatuses {
		if ts.State != "done" {
			t.Errorf("tile %d recorded as %q, want done", ts.Index, ts.State)
		}
	}

	w := getJSON(t, s, "/v1/jobs/"+m.ID+"/result")
	if w.Code != http.StatusOK {
		t.Fatalf("result = %d: %s", w.Code, w.Body)
	}
	if got, want := remarshal(t, w.Body.Bytes()), remarshal(t, syncCity); !bytes.Equal(got, want) {
		t.Errorf("async result differs from the synchronous stream's:\nasync: %s\nsync:  %s", got, want)
	}

	var h Health
	if err := json.Unmarshal(getJSON(t, s, "/healthz").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Jobs == nil || h.Jobs.Done < 1 {
		t.Errorf("healthz job census = %+v, want at least one done job", h.Jobs)
	}

	if w := getJSON(t, s, "/v1/jobs/nope"); w.Code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", w.Code)
	}
	if w := postJSON(t, s, "/v1/jobs", `{"city":{"demo":true,"tile_retries":-1}}`); w.Code != http.StatusBadRequest {
		t.Errorf("invalid submit = %d, want 400 (%s)", w.Code, w.Body)
	}
}

// TestJobSubmitRejectsInvalidMaxModules pins submit-time validation
// of the plan options: a max_modules below one 8-module string (or
// negative) answers 400 invalid_request before admission, and no job
// directory or manifest is written.
func TestJobSubmitRejectsInvalidMaxModules(t *testing.T) {
	dir := t.TempDir()
	store, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Jobs: store})
	for _, maxModules := range []int{4, -3} {
		body := fmt.Sprintf(`{"city":{"demo":true,"max_modules":%d}}`, maxModules)
		w := postJSON(t, s, "/v1/jobs", body)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "invalid_request") {
			t.Errorf("max_modules %d: submit = %d, want 400 invalid_request (%s)", maxModules, w.Code, w.Body)
		}
	}
	if ms := store.List(); len(ms) != 0 {
		t.Errorf("rejected submits left %d manifests: %+v", len(ms), ms)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("rejected submits wrote %d entries under the job store", len(ents))
	}
}

// TestJobResultConflictAndCancel holds a job mid-tile behind a gate
// and pins the in-flight surface: the result endpoint answers 409
// while the job runs, cancel aborts the run and parks the job
// cancelled, and cancelling a terminal job is a 409.
func TestJobResultConflictAndCancel(t *testing.T) {
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Jobs: store})
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	var once sync.Once
	s.cityHook = func(cfg *pvfloor.CityConfig) {
		ctx := cfg.Context
		cfg.TileFault = func(tile, attempt int) error {
			once.Do(func() { close(started) })
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}

	m := submitCityJob(t, s, CityRequest{DistrictRequest: DistrictRequest{Demo: true}})
	<-started
	if w := getJSON(t, s, "/v1/jobs/"+m.ID+"/result"); w.Code != http.StatusConflict {
		t.Fatalf("result of a running job = %d, want 409 (%s)", w.Code, w.Body)
	}
	if w := postJSON(t, s, "/v1/jobs/"+m.ID+"/cancel", ""); w.Code != http.StatusAccepted {
		t.Fatalf("cancel = %d: %s", w.Code, w.Body)
	}
	waitFor(t, "job cancellation", func() bool {
		if jobManifest(t, s, m.ID).State != jobs.Cancelled {
			return false
		}
		// Wait for the runner to unregister too, so the re-cancel below
		// exercises the terminal-transition path, not the context one.
		_, live := s.jobRuns.Load(m.ID)
		return !live
	})
	if w := postJSON(t, s, "/v1/jobs/"+m.ID+"/cancel", ""); w.Code != http.StatusConflict {
		t.Errorf("re-cancel of a cancelled job = %d, want 409 (%s)", w.Code, w.Body)
	}
	if w := getJSON(t, s, "/v1/jobs/"+m.ID+"/result"); w.Code != http.StatusConflict {
		t.Errorf("result of a cancelled job = %d, want 409", w.Code)
	}
}

// TestShutdownParksJobInterruptedThenResumes pins the restart story
// end to end: Shutdown drains a running job (its in-flight tile
// finishes and checkpoints, the job parks durably as interrupted and
// new submissions bounce), a second server over the same store
// re-enqueues it, and the resumed job completes with a result
// byte-equivalent to a never-interrupted synchronous run — replaying,
// not re-running, the tiles the first server finished.
func TestShutdownParksJobInterruptedThenResumes(t *testing.T) {
	dir := t.TempDir()
	store, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Jobs: store})
	asc := loadTileASC(t)
	req := CityRequest{DistrictRequest: DistrictRequest{TileASC: asc}, TileCells: 80}

	started := make(chan struct{})
	var once sync.Once
	s.cityHook = func(cfg *pvfloor.CityConfig) {
		inner := cfg.TileFault
		cfg.TileFault = func(tile, attempt int) error {
			once.Do(func() { close(started) })
			// Hold the first tile open long enough that the drain
			// provably lands mid-run.
			time.Sleep(50 * time.Millisecond)
			if inner != nil {
				return inner(tile, attempt)
			}
			return nil
		}
	}
	m := submitCityJob(t, s, req)
	<-started
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("graceful shutdown = %v", err)
	}
	if w := postJSON(t, s, "/v1/jobs", `{"city":{"demo":true}}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("submit during drain = %d, want 503", w.Code)
	}

	// The interruption must be durable: a fresh store over the same
	// directory — a process restart — sees it without help.
	store2, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2, ok := store2.Get(m.ID)
	if !ok {
		t.Fatal("job lost across store reopen")
	}
	m2 := j2.Manifest()
	if m2.State != jobs.Interrupted {
		t.Fatalf("job after shutdown+reopen = %s, want interrupted (%+v)", m2.State, m2)
	}
	if m2.TilesDone() == 0 || m2.TilesDone() >= 4 {
		t.Fatalf("interrupted job checkpointed %d tiles, want some but not all of 4", m2.TilesDone())
	}
	firstDone := m2.TilesDone()

	s2 := newTestServer(t, Options{Jobs: store2})
	var ckMu sync.Mutex
	hits, commits := 0, 0
	s2.cityHook = func(cfg *pvfloor.CityConfig) {
		inner := cfg.Checkpoint
		cfg.Checkpoint = funcCheckpoint{
			lookup: func(tile int) (*pvfloor.TileRecord, error) {
				rec, err := inner.Lookup(tile)
				if rec != nil && err == nil {
					ckMu.Lock()
					hits++
					ckMu.Unlock()
				}
				return rec, err
			},
			commit: func(tile int, rec *pvfloor.TileRecord) error {
				ckMu.Lock()
				commits++
				ckMu.Unlock()
				return inner.Commit(tile, rec)
			},
		}
	}
	if n := s2.ResumeJobs(); n != 1 {
		t.Fatalf("ResumeJobs = %d, want 1", n)
	}
	waitFor(t, "resumed job completion", func() bool {
		return jobManifest(t, s2, m.ID).State == jobs.Done
	})
	final := jobManifest(t, s2, m.ID)
	if final.Tiles != 4 || final.TilesDone() != 4 {
		t.Errorf("resumed manifest tiles = %d/%d, want 4/4", final.TilesDone(), final.Tiles)
	}
	for _, ts := range final.TileStatuses {
		if ts.State != "done" {
			t.Errorf("resumed tile %d recorded as %q, want done", ts.Index, ts.State)
		}
	}
	// The resumed run replays exactly the tiles the first server
	// committed and computes only the remainder.
	ckMu.Lock()
	if hits != firstDone || commits != 4-firstDone {
		t.Errorf("resume replayed %d / computed %d tiles, want %d / %d",
			hits, commits, firstDone, 4-firstDone)
	}
	ckMu.Unlock()

	w := getJSON(t, s2, "/v1/jobs/"+m.ID+"/result")
	if w.Code != http.StatusOK {
		t.Fatalf("resumed result = %d: %s", w.Code, w.Body)
	}
	syncLines := cityStream(t, s2, req)
	syncCity := syncLines[len(syncLines)-1]["city"]
	if got, want := remarshal(t, w.Body.Bytes()), remarshal(t, syncCity); !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from an uninterrupted run:\nresumed: %s\nsync:    %s", got, want)
	}
}

// funcCheckpoint adapts two closures to pvfloor.CityCheckpoint so
// tests can observe replay-vs-compute through the cityHook seam.
type funcCheckpoint struct {
	lookup func(int) (*pvfloor.TileRecord, error)
	commit func(int, *pvfloor.TileRecord) error
}

func (c funcCheckpoint) Lookup(tile int) (*pvfloor.TileRecord, error) { return c.lookup(tile) }
func (c funcCheckpoint) Commit(tile int, rec *pvfloor.TileRecord) error {
	return c.commit(tile, rec)
}

// tileDisconnectWriter cancels the request context once `after`
// tile-finished lines have streamed — a client that goes away mid-city.
type tileDisconnectWriter struct {
	header http.Header
	buf    bytes.Buffer
	cancel context.CancelFunc
	after  int
	seen   int
}

func (w *tileDisconnectWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *tileDisconnectWriter) WriteHeader(int) {}
func (w *tileDisconnectWriter) Flush()          {}

func (w *tileDisconnectWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	if bytes.Contains(p, []byte(`"tile-finished"`)) {
		w.seen++
		if w.seen == w.after {
			w.cancel()
		}
	}
	return len(p), nil
}

// TestCityStreamClientDisconnect pins cancellation propagation through
// the tiled pipeline: a client that disconnects after the first
// tile-finished event stops the sweep — later tiles never complete and
// no result is emitted — and the same request submitted as an async
// job afterwards still runs to a full result, because job execution is
// decoupled from any request connection.
func TestCityStreamClientDisconnect(t *testing.T) {
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{MaxConcurrentRuns: 1, QueueDepth: 1, Concurrency: 1, FieldWorkers: 1, Jobs: store})
	asc := loadTileASC(t)
	req := CityRequest{DistrictRequest: DistrictRequest{TileASC: asc}, TileCells: 80}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &tileDisconnectWriter{cancel: cancel, after: 1}
	hr := httptest.NewRequest(http.MethodPost, "/v1/city", bytes.NewReader(body)).WithContext(ctx)
	hr.Header.Set("Content-Type", "application/json")
	s.ServeHTTP(w, hr) // returns once the sweep has wound down

	lines := ndjsonLines(t, w.buf.String())
	finished := 0
	var sawResult, sawError bool
	for _, obj := range lines {
		switch eventOf(t, obj) {
		case "tile-finished":
			finished++
		case "result":
			sawResult = true
		case "error":
			sawError = true
		}
	}
	if sawResult {
		t.Error("disconnected city stream still produced a result")
	}
	if !sawError {
		t.Error("disconnected city stream ended without an error event")
	}
	// Sequential tiles + the disconnect after tile 0: the cancellation
	// must stop the sweep before all 4 tiles complete.
	if finished >= 4 {
		t.Errorf("%d tiles finished after mid-stream disconnect, want < 4", finished)
	}

	// The durable path shrugs the lost connection off: the same city
	// submitted as a job completes without any client attached.
	m := submitCityJob(t, s, req)
	waitFor(t, "post-disconnect job completion", func() bool {
		return jobManifest(t, s, m.ID).State == jobs.Done
	})
	if w := getJSON(t, s, "/v1/jobs/"+m.ID+"/result"); w.Code != http.StatusOK {
		t.Errorf("job result after disconnect test = %d: %s", w.Code, w.Body)
	}
}
