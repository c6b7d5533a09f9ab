// Package gis provides interchange with standard GIS raster formats
// so that real LiDAR-derived surface models — the paper's actual
// input (§IV) — can replace the synthetic scenes. The ESRI ASCII grid
// (.asc) format is the lingua franca of DSM distribution (it is what
// GRASS, QGIS and most national LiDAR portals export), trivially
// diffable and stdlib-parsable.
package gis

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// AscGrid is an ESRI ASCII grid's header plus, on the export path
// (FromRaster, WriteAsc), its data; WindowedReader.Header returns the
// header alone. Rows are stored north-to-south (the file order),
// matching the dsm.Raster convention of y growing southward.
type AscGrid struct {
	// NCols, NRows are the raster dimensions.
	NCols, NRows int
	// XLLCorner, YLLCorner locate the lower-left corner in the
	// source coordinate reference system (carried through verbatim).
	XLLCorner, YLLCorner float64
	// CellSize is the grid pitch in metres.
	CellSize float64
	// NoData is the sentinel for missing cells.
	NoData float64
	// Z holds elevations row-major, north row first.
	Z []float64
}

func isNumeric(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// setHeaderField parses one "key value" header line into g, recording
// the key in seen. Every value must be finite. The dimensions must be
// whole numbers no larger than math.MaxInt32: they size every later
// allocation, so a header that rounds or overflows is rejected rather
// than trusted.
func (g *AscGrid) setHeaderField(rawKey, rawVal string, seen map[string]bool) error {
	key := strings.ToLower(rawKey)
	val, err := strconv.ParseFloat(rawVal, 64)
	if err != nil {
		return fmt.Errorf("gis: header %s: bad value %q: %w", key, rawVal, err)
	}
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return fmt.Errorf("gis: header %s: %q is not a finite number", key, rawVal)
	}
	if (key == "ncols" || key == "nrows") && (val != math.Trunc(val) || math.Abs(val) > math.MaxInt32) {
		return fmt.Errorf("gis: header %s: %q is not a whole number up to %d", key, rawVal, math.MaxInt32)
	}
	seen[key] = true
	switch key {
	case "ncols":
		g.NCols = int(val)
	case "nrows":
		g.NRows = int(val)
	case "xllcorner", "xllcenter":
		g.XLLCorner = val
	case "yllcorner", "yllcenter":
		g.YLLCorner = val
	case "cellsize":
		g.CellSize = val
	case "nodata_value":
		g.NoData = val
	default:
		return fmt.Errorf("gis: unknown header key %q", key)
	}
	return nil
}

// WriteAsc serialises the grid in ESRI ASCII format.
func (g *AscGrid) WriteAsc(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ncols %d\n", g.NCols)
	fmt.Fprintf(bw, "nrows %d\n", g.NRows)
	fmt.Fprintf(bw, "xllcorner %g\n", g.XLLCorner)
	fmt.Fprintf(bw, "yllcorner %g\n", g.YLLCorner)
	fmt.Fprintf(bw, "cellsize %g\n", g.CellSize)
	fmt.Fprintf(bw, "NODATA_value %g\n", g.NoData)
	for y := 0; y < g.NRows; y++ {
		for x := 0; x < g.NCols; x++ {
			if x > 0 {
				bw.WriteByte(' ')
			}
			fmt.Fprintf(bw, "%g", g.Z[y*g.NCols+x])
		}
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("gis: writing asc: %w", err)
	}
	return nil
}

// gzipMagic is the two-byte RFC 1952 member header every gzip stream
// starts with.
var gzipMagic = []byte{0x1f, 0x8b}

// MaybeGunzip sniffs the stream's first two bytes and, when they are
// the gzip magic, interposes a gzip reader; plain streams pass through
// untouched. National LiDAR portals ship .asc.gz, so every ingestion
// surface (CLI file, HTTP body, windowed reader) accepts either form.
func MaybeGunzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("gis: sniffing stream: %w", err)
	}
	if len(head) == 2 && head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("gis: opening gzip stream: %w", err)
		}
		return zr, nil
	}
	return br, nil
}

// LoadRaster reads a whole ESRI ASCII grid — plain or gzip-compressed
// (sniffed by magic bytes) — into a district-ready raster: NoData
// cells are filled with the ground datum 0, and when any exist the
// returned mask marks them (nil mask = full coverage). It decodes
// through the same windowed reader as OpenWindowed and the tile
// store, so an in-memory tile and an uploaded or city-scale one
// accept the same grids and apply the same NODATA policy.
func LoadRaster(r io.Reader) (*dsm.Raster, *geom.Mask, error) {
	rr, err := MaybeGunzip(r)
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(rr)
	if err != nil {
		return nil, nil, fmt.Errorf("gis: reading asc: %w", err)
	}
	// A full read visits each row block once, in order, so retaining
	// more than the current block would only raise peak memory.
	w, err := NewWindowedReader(bytes.NewReader(raw), int64(len(raw)), WindowOptions{CacheBytes: 1})
	if err != nil {
		return nil, nil, err
	}
	return w.Window(w.Bounds())
}

// FromRaster wraps a dsm.Raster for export, with the given lower-left
// corner coordinates in the target CRS.
func FromRaster(r *dsm.Raster, xll, yll float64) *AscGrid {
	g := &AscGrid{
		NCols: r.W(), NRows: r.H(),
		XLLCorner: xll, YLLCorner: yll,
		CellSize: r.CellSize(),
		NoData:   -9999,
		Z:        make([]float64, r.W()*r.H()),
	}
	for y := 0; y < r.H(); y++ {
		for x := 0; x < r.W(); x++ {
			g.Z[y*g.NCols+x] = r.At(geom.Cell{X: x, Y: y})
		}
	}
	return g
}
