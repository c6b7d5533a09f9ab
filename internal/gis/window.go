package gis

import (
	"bufio"
	"container/list"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// WindowOptions sizes the windowed reader's block cache.
type WindowOptions struct {
	// BlockRows is the number of raster rows grouped into one cached
	// block. 0 means the default (64).
	BlockRows int
	// CacheBytes is the LRU budget for decoded blocks, in bytes. The
	// reader always retains at least the block it just decoded, so a
	// budget smaller than one block degrades to single-block caching
	// rather than thrashing to zero. 0 means the default (64 MiB).
	CacheBytes int64
}

const (
	defaultBlockRows  = 64
	defaultCacheBytes = 64 << 20
)

// CacheStats reports block-cache traffic. Hits+Misses counts every
// block lookup; Evictions counts blocks dropped to stay inside the
// byte budget.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// block is a decoded run of raster rows. nodata is nil when the run
// has full coverage.
type block struct {
	row0, rows int
	z          []float64
	nodata     []bool
	bytes      int64
}

// WindowedReader provides out-of-core, block-indexed access to an
// ESRI ASCII grid: the constructor scans the file once to parse the
// header and record the byte offset of every data row, after which
// Window(rect) decodes only the blocks of rows the rectangle touches,
// holding at most CacheBytes of decoded data at a time. This is how a
// municipality-sized DSM is planned without ever materialising the
// full grid: peak memory is O(window + cache budget), independent of
// city size.
//
// It is the package's only ASC decoder: LoadRaster reads a whole grid
// through it, so every ingestion surface requires exactly one raster
// row per line (the layout WriteAsc and every mainstream GIS exporter
// produce). A row split across lines is rejected when the file is
// indexed, or at the latest when its block is first decoded.
//
// Window is safe for concurrent use; the city pipeline's tile workers
// share one reader.
type WindowedReader struct {
	hdr    AscGrid // header fields only; Z stays nil
	ra     io.ReaderAt
	rowOff []int64 // len NRows+1; rowOff[i] = first byte of row i, rowOff[NRows] = end of last row

	blockRows  int
	cacheBytes int64

	mu      sync.Mutex
	blocks  map[int]*list.Element // block index → lru element holding *block
	lru     *list.List            // front = most recent
	held    int64
	stats   CacheStats
	closers []io.Closer
	tmp     string // gunzipped temp file to remove on Close
}

// OpenWindowed opens path — a plain or gzip-compressed ESRI ASCII
// grid (sniffed by magic bytes) — for windowed access. Compressed
// files are inflated once to a temporary file so row blocks stay
// randomly addressable; Close removes it.
func OpenWindowed(path string, opts WindowOptions) (*WindowedReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gis: opening %s: %w", path, err)
	}
	var head [2]byte
	n, err := io.ReadFull(f, head[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		f.Close()
		return nil, fmt.Errorf("gis: sniffing %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("gis: rewinding %s: %w", path, err)
	}

	ra := io.ReaderAt(f)
	size := int64(0)
	closers := []io.Closer{f}
	tmp := ""
	if n == 2 && head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		tf, err := inflateToTemp(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		ra, closers, tmp = tf, []io.Closer{tf}, tf.Name()
		st, err := tf.Stat()
		if err != nil {
			tf.Close()
			os.Remove(tmp)
			return nil, fmt.Errorf("gis: sizing inflated %s: %w", path, err)
		}
		size = st.Size()
	} else {
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("gis: sizing %s: %w", path, err)
		}
		size = st.Size()
	}

	w, err := NewWindowedReader(ra, size, opts)
	if err != nil {
		for _, c := range closers {
			c.Close()
		}
		if tmp != "" {
			os.Remove(tmp)
		}
		return nil, err
	}
	w.closers, w.tmp = closers, tmp
	return w, nil
}

// inflateToTemp decompresses a gzip stream into an unlinked-on-Close
// temporary file and returns it positioned for random access.
func inflateToTemp(r io.Reader) (*os.File, error) {
	zr, err := MaybeGunzip(r)
	if err != nil {
		return nil, err
	}
	tf, err := os.CreateTemp("", "pvfloor-asc-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("gis: creating inflate temp: %w", err)
	}
	if _, err := io.Copy(tf, zr); err != nil {
		tf.Close()
		os.Remove(tf.Name())
		return nil, fmt.Errorf("gis: inflating asc.gz: %w", err)
	}
	return tf, nil
}

// NewWindowedReader indexes size bytes of uncompressed ASC content
// served by ra: it parses the header and records every data row's
// byte offset (one sequential pass, O(rows) memory).
func NewWindowedReader(ra io.ReaderAt, size int64, opts WindowOptions) (*WindowedReader, error) {
	w := &WindowedReader{
		hdr:        AscGrid{NoData: -9999},
		ra:         ra,
		blockRows:  opts.BlockRows,
		cacheBytes: opts.CacheBytes,
		blocks:     map[int]*list.Element{},
		lru:        list.New(),
	}
	if w.blockRows <= 0 {
		w.blockRows = defaultBlockRows
	}
	if w.cacheBytes <= 0 {
		w.cacheBytes = defaultCacheBytes
	}
	if err := w.scanIndex(size); err != nil {
		return nil, err
	}
	return w, nil
}

// scanIndex reads the stream once, parsing header lines and recording
// the byte offset of each data row.
func (w *WindowedReader) scanIndex(size int64) error {
	br := bufio.NewReaderSize(io.NewSectionReader(w.ra, 0, size), 1<<20)
	var off int64
	headerDone := false
	seen := map[string]bool{}
	for {
		line, err := br.ReadString('\n')
		lineStart := off
		off += int64(len(line))
		if line != "" {
			trimmed := strings.TrimSpace(line)
			fields := strings.Fields(trimmed)
			switch {
			case trimmed == "":
				// blank line — never a data row
			case !headerDone && len(fields) == 2 && !isNumeric(fields[0]):
				if err := w.hdr.setHeaderField(fields[0], fields[1], seen); err != nil {
					return err
				}
			default:
				// ncols values need ncols characters and ncols-1
				// separators: a shorter line cannot be a row, and
				// rejecting it here bounds the decoded grid by the
				// input size before any raster is allocated.
				if n := w.hdr.NCols; len(trimmed) < 2*n-1 {
					return fmt.Errorf("gis: data line %d has %d bytes, too short for ncols %d",
						len(w.rowOff)+1, len(trimmed), n)
				}
				headerDone = true
				w.rowOff = append(w.rowOff, lineStart)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("gis: indexing asc: %w", err)
		}
	}
	g := &w.hdr
	if !seen["ncols"] || !seen["nrows"] || !seen["cellsize"] {
		return fmt.Errorf("gis: missing mandatory header keys (ncols/nrows/cellsize)")
	}
	if g.NCols <= 0 || g.NRows <= 0 || g.CellSize <= 0 {
		return fmt.Errorf("gis: invalid or missing header (ncols %d, nrows %d, cellsize %g)",
			g.NCols, g.NRows, g.CellSize)
	}
	if len(w.rowOff) != g.NRows {
		return fmt.Errorf("gis: windowed reader needs one data row per line: %d data lines for nrows %d",
			len(w.rowOff), g.NRows)
	}
	w.rowOff = append(w.rowOff, size)
	return nil
}

// Header returns a copy of the parsed header (Z is nil).
func (w *WindowedReader) Header() AscGrid { return w.hdr }

// Bounds returns the full grid rectangle in cells.
func (w *WindowedReader) Bounds() geom.Rect {
	return geom.Rect{X0: 0, Y0: 0, X1: w.hdr.NCols, Y1: w.hdr.NRows}
}

// CellSize returns the grid pitch in metres.
func (w *WindowedReader) CellSize() float64 { return w.hdr.CellSize }

// Stats returns a snapshot of the block-cache counters.
func (w *WindowedReader) Stats() CacheStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Close releases the underlying file handles and any gunzip temp file.
func (w *WindowedReader) Close() error {
	var first error
	for _, c := range w.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	if w.tmp != "" {
		if err := os.Remove(w.tmp); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Window decodes rect (global cells, half-open, must lie inside
// Bounds) into a district-ready raster: NoData cells are filled with
// the ground datum 0 and reported in the mask (nil = full coverage),
// exactly LoadRaster's policy. The raster's origin is set to rect's
// anchor, so its metric accessors — and therefore horizon marching
// over it — behave bit-identically to the full grid.
func (w *WindowedReader) Window(rect geom.Rect) (*dsm.Raster, *geom.Mask, error) {
	if rect.Empty() {
		return nil, nil, fmt.Errorf("gis: empty window %v", rect)
	}
	if rect.Intersect(w.Bounds()) != rect {
		return nil, nil, fmt.Errorf("gis: window %v outside grid %v", rect, w.Bounds())
	}
	r, err := dsm.NewRaster(rect.W(), rect.H(), w.hdr.CellSize)
	if err != nil {
		return nil, nil, err
	}
	r.SetOrigin(rect.Anchor())
	var mask *geom.Mask
	for y := rect.Y0; y < rect.Y1; y++ {
		b, err := w.getBlock(y / w.blockRows)
		if err != nil {
			return nil, nil, err
		}
		base := (y - b.row0) * w.hdr.NCols
		for x := rect.X0; x < rect.X1; x++ {
			c := geom.Cell{X: x - rect.X0, Y: y - rect.Y0}
			r.Set(c, b.z[base+x])
			if b.nodata != nil && b.nodata[base+x] {
				if mask == nil {
					mask = geom.NewMask(rect.W(), rect.H())
				}
				mask.Set(c, true)
			}
		}
	}
	return r, mask, nil
}

// getBlock returns the decoded block bi, consulting the LRU cache.
func (w *WindowedReader) getBlock(bi int) (*block, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if el, ok := w.blocks[bi]; ok {
		w.stats.Hits++
		w.lru.MoveToFront(el)
		return el.Value.(*block), nil
	}
	w.stats.Misses++
	b, err := w.decodeBlock(bi)
	if err != nil {
		return nil, err
	}
	w.blocks[bi] = w.lru.PushFront(b)
	w.held += b.bytes
	for w.held > w.cacheBytes && w.lru.Len() > 1 {
		oldest := w.lru.Back()
		victim := oldest.Value.(*block)
		w.lru.Remove(oldest)
		delete(w.blocks, victim.row0/w.blockRows)
		w.held -= victim.bytes
		w.stats.Evictions++
	}
	return b, nil
}

// decodeBlock reads and parses the run of rows covered by block bi.
func (w *WindowedReader) decodeBlock(bi int) (*block, error) {
	row0 := bi * w.blockRows
	row1 := row0 + w.blockRows
	if row1 > w.hdr.NRows {
		row1 = w.hdr.NRows
	}
	if row0 < 0 || row0 >= row1 {
		return nil, fmt.Errorf("gis: block %d outside grid", bi)
	}
	start, end := w.rowOff[row0], w.rowOff[row1]
	raw := make([]byte, end-start)
	if _, err := io.ReadFull(io.NewSectionReader(w.ra, start, end-start), raw); err != nil {
		return nil, fmt.Errorf("gis: reading rows %d-%d: %w", row0, row1-1, err)
	}
	ncols := w.hdr.NCols
	b := &block{row0: row0, rows: row1 - row0, z: make([]float64, (row1-row0)*ncols)}
	row := row0
	for _, line := range strings.Split(string(raw), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if row >= row1 {
			return nil, fmt.Errorf("gis: extra data line after row %d", row1-1)
		}
		fields := strings.Fields(trimmed)
		if len(fields) != ncols {
			return nil, fmt.Errorf("gis: row %d has %d values, want ncols %d", row, len(fields), ncols)
		}
		base := (row - row0) * ncols
		for x, tok := range fields {
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("gis: row %d col %d: %q: %w", row, x, tok, err)
			}
			if math.IsInf(v, 0) {
				return nil, fmt.Errorf("gis: row %d col %d: %q: non-finite height", row, x, tok)
			}
			if v == w.hdr.NoData || v != v { // NoData sentinel or NaN
				if b.nodata == nil {
					b.nodata = make([]bool, len(b.z))
				}
				b.nodata[base+x] = true
				v = 0
			}
			b.z[base+x] = v
		}
		row++
	}
	if row != row1 {
		return nil, fmt.Errorf("gis: rows %d-%d: decoded %d lines", row0, row1-1, row-row0)
	}
	b.bytes = int64(len(b.z)*8 + len(b.nodata))
	return b, nil
}

// RasterSource adapts an in-memory raster (plus optional NODATA mask)
// to the same Bounds/CellSize/Window surface as WindowedReader, so a
// tile already in memory — the built-in demo neighborhood, or an
// inline grid decoded by LoadRaster — feeds the same source-driven
// district and city paths as a file opened with OpenWindowed.
type RasterSource struct {
	Raster *dsm.Raster
	NoData *geom.Mask // nil = full coverage
}

// Bounds returns the wrapped raster's rectangle.
func (s *RasterSource) Bounds() geom.Rect { return s.Raster.Bounds() }

// CellSize returns the wrapped raster's pitch in metres.
func (s *RasterSource) CellSize() float64 { return s.Raster.CellSize() }

// Window copies rect out of the wrapped raster with the origin set,
// mirroring WindowedReader.Window semantics.
func (s *RasterSource) Window(rect geom.Rect) (*dsm.Raster, *geom.Mask, error) {
	if rect.Empty() {
		return nil, nil, fmt.Errorf("gis: empty window %v", rect)
	}
	if rect.Intersect(s.Raster.Bounds()) != rect {
		return nil, nil, fmt.Errorf("gis: window %v outside grid %v", rect, s.Raster.Bounds())
	}
	r, err := dsm.NewRaster(rect.W(), rect.H(), s.Raster.CellSize())
	if err != nil {
		return nil, nil, err
	}
	r.SetOrigin(rect.Anchor())
	var mask *geom.Mask
	for y := rect.Y0; y < rect.Y1; y++ {
		for x := rect.X0; x < rect.X1; x++ {
			local := geom.Cell{X: x - rect.X0, Y: y - rect.Y0}
			r.Set(local, s.Raster.At(geom.Cell{X: x, Y: y}))
			if s.NoData != nil && s.NoData.Get(geom.Cell{X: x, Y: y}) {
				if mask == nil {
					mask = geom.NewMask(rect.W(), rect.H())
				}
				mask.Set(local, true)
			}
		}
	}
	return r, mask, nil
}
