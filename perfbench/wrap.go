package main

import (
	"sync"
	"time"

	pvfloor "repro"
	"repro/internal/dsm"
	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/gis"
)

// Wrappers around the program's public seams. Each one forwards to
// the real implementation and records a span per call; none changes
// what the call returns.

// scope names the span that calls through a wrapper belong to (the
// work tile in flight). City tiles run one at a time, so a single
// current scope is exact.
type scope struct {
	mu    sync.Mutex
	id    int
	group string
}

func (s *scope) set(id int, group string) {
	s.mu.Lock()
	s.id, s.group = id, group
	s.mu.Unlock()
}

func (s *scope) get() (int, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.id, s.group
}

// tracedSource wraps a city source, timing every window read.
type tracedSource struct {
	pvfloor.CitySource
	tr *tracer
	sc *scope
}

func (s *tracedSource) Window(rect geom.Rect) (*dsm.Raster, *geom.Mask, error) {
	t0 := time.Now()
	r, m, err := s.CitySource.Window(rect)
	parent, group := s.sc.get()
	s.tr.record("gis.window", group, parent, t0, time.Now(), int64(rect.Area())*8)
	return r, m, err
}

// blockStats exposes the windowed reader's block-cache counters when
// the wrapped source is one.
func (s *tracedSource) blockStats() (gis.CacheStats, bool) {
	if wr, ok := s.CitySource.(*gis.WindowedReader); ok {
		return wr.Stats(), true
	}
	return gis.CacheStats{}, false
}

// tracedCheckpoint wraps a city checkpoint, timing every commit.
type tracedCheckpoint struct {
	pvfloor.CityCheckpoint
	tr *tracer
	sc *scope
}

func (c *tracedCheckpoint) Commit(tile int, rec *pvfloor.TileRecord) error {
	t0 := time.Now()
	err := c.CityCheckpoint.Commit(tile, rec)
	parent, group := c.sc.get()
	c.tr.record("checkpoint.commit", group, parent, t0, time.Now(), 0)
	return err
}

// tracedFS wraps the filesystem seam under a field-artifact cache:
// reads, writes (temp file, write, close, rename) and fsyncs (file and
// directory) each become spans.
type tracedFS struct {
	faultfs.FS
	tr *tracer
	sc *scope
}

func (f *tracedFS) span(name string, t0 time.Time, bytes int64) {
	parent, group := f.sc.get()
	f.tr.record(name, group, parent, t0, time.Now(), bytes)
}

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	t0 := time.Now()
	data, err := f.FS.ReadFile(name)
	f.span("blobstore.read", t0, int64(len(data)))
	return data, err
}

func (f *tracedFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	t0 := time.Now()
	file, err := f.FS.CreateTemp(dir, pattern)
	f.span("blobstore.write", t0, 0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := f.FS.Rename(oldpath, newpath)
	f.span("blobstore.write", t0, 0)
	return err
}

func (f *tracedFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.FS.SyncDir(dir)
	f.span("blobstore.fsync", t0, 0)
	return err
}

type tracedFile struct {
	faultfs.File
	fs *tracedFS
}

func (t *tracedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.File.Write(p)
	t.fs.span("blobstore.write", t0, int64(n))
	return n, err
}

func (t *tracedFile) Sync() error {
	t0 := time.Now()
	err := t.File.Sync()
	t.fs.span("blobstore.fsync", t0, 0)
	return err
}

func (t *tracedFile) Close() error {
	t0 := time.Now()
	err := t.File.Close()
	t.fs.span("blobstore.write", t0, 0)
	return err
}
