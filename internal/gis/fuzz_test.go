package gis

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// FuzzLoadRaster hammers the ASC decoder with arbitrary bytes. It
// must never panic, and an accepted grid must be bounded by its input
// (at most one cell per byte), survive a FromRaster → WriteAsc →
// LoadRaster round trip bit for bit, and agree row by row with a
// windowed read of the same bytes.
func FuzzLoadRaster(f *testing.F) {
	f.Add([]byte(sampleAsc))
	f.Add([]byte("ncols 2\nnrows 2\ncellsize 0.2\n1 2\n3 4\n"))
	f.Add([]byte("ncols 1\nnrows 1\nxllcenter 5\nyllcenter 6\ncellsize 1\nNODATA_value -1\n-1\n"))
	f.Add([]byte("ncols 2\nnrows 1\ncellsize 1\n1e308 -1e308\n"))
	f.Add([]byte("ncols 3\nnrows 1\ncellsize 0.5\nnan inf -inf\n"))
	f.Add([]byte(""))
	f.Add([]byte("ncols x\n"))
	// The committed district fixture, clipped to keep iterations fast.
	if fix, err := os.ReadFile(filepath.Join("..", "..", "testdata", "district", "neighborhood.asc")); err == nil {
		lines := strings.SplitN(string(fix), "\n", 10)
		f.Add([]byte(strings.Join(lines[:6], "\n") + "\n"))
	}
	f.Add([]byte(hugeHeader))

	f.Fuzz(func(t *testing.T, data []byte) {
		full, mask, err := LoadRaster(bytes.NewReader(data))
		if err != nil {
			return
		}
		zr, err := MaybeGunzip(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("accepted input fails to gunzip: %v", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("accepted input fails to inflate: %v", err)
		}
		if cells := full.W() * full.H(); cells > len(raw) {
			t.Fatalf("accepted %d cells from %d bytes", cells, len(raw))
		}

		w, err := NewWindowedReader(bytes.NewReader(raw), int64(len(raw)), WindowOptions{BlockRows: 3})
		if err != nil {
			t.Fatalf("windowed reader rejects an accepted grid: %v", err)
		}
		hdr := w.Header()
		for y := 0; y < full.H(); y++ {
			row, rowMask, err := w.Window(geom.Rect{X0: 0, Y0: y, X1: full.W(), Y1: y + 1})
			if err != nil {
				t.Fatalf("row %d: %v", y, err)
			}
			for x := 0; x < full.W(); x++ {
				c := geom.Cell{X: x, Y: y}
				if got, want := row.At(geom.Cell{X: x}), full.At(c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("row window cell %v = %g, full read %g", c, got, want)
				}
				if got, want := rowMask != nil && rowMask.Get(geom.Cell{X: x}), mask != nil && mask.Get(c); got != want {
					t.Fatalf("row window cell %v nodata %v, full read %v", c, got, want)
				}
			}
		}

		var buf bytes.Buffer
		if err := FromRaster(full, hdr.XLLCorner, hdr.YLLCorner).WriteAsc(&buf); err != nil {
			t.Fatalf("write of accepted grid failed: %v", err)
		}
		bw, err := NewWindowedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), WindowOptions{})
		if err != nil {
			t.Fatalf("round trip of accepted grid failed: %v", err)
		}
		// The decoder rejects non-finite header values, so the
		// header must survive the round trip bit for bit.
		sameF := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if back := bw.Header(); back.NCols != hdr.NCols || back.NRows != hdr.NRows ||
			!sameF(back.CellSize, hdr.CellSize) ||
			!sameF(back.XLLCorner, hdr.XLLCorner) || !sameF(back.YLLCorner, hdr.YLLCorner) {
			t.Fatalf("header drifted: %+v vs %+v", hdr, back)
		}
		back, backMask, err := LoadRaster(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip of accepted grid failed: %v", err)
		}
		for y := 0; y < full.H(); y++ {
			for x := 0; x < full.W(); x++ {
				// %g prints shortest-round-trip floats, so the bits
				// must survive exactly. The one exception is a cell
				// equal to FromRaster's own sentinel, which the
				// re-read takes as NODATA.
				c := geom.Cell{X: x, Y: y}
				want, wantHole := full.At(c), false
				if want == -9999 {
					want, wantHole = 0, true
				}
				if got := back.At(c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cell %v drifted: %g (%x) vs %g (%x)",
						c, want, math.Float64bits(want), got, math.Float64bits(got))
				}
				if gotHole := backMask != nil && backMask.Get(c); gotHole != wantHole {
					t.Fatalf("cell %v nodata %v after round trip, want %v", c, gotHole, wantHole)
				}
			}
		}
	})
}

// FuzzRasterRoundTrip drives the dsm.Raster → AscGrid → text →
// LoadRaster → dsm.Raster cycle with fuzzed shapes, georeference and a
// procedurally filled surface: the reconstruction must be cell-exact
// and NODATA accounting must match.
func FuzzRasterRoundTrip(f *testing.F) {
	f.Add(3, 2, 0.2, 395000.5, 5000020.0, uint64(1))
	f.Add(1, 1, 1.0, 0.0, 0.0, uint64(42))
	f.Add(12, 7, 0.05, -100.25, 7e6, uint64(99))

	f.Fuzz(func(t *testing.T, w, h int, cellSize, xll, yll float64, seed uint64) {
		if w <= 0 || h <= 0 || w*h > 1<<12 {
			t.Skip()
		}
		if !(cellSize > 1e-9) || cellSize > 1e6 ||
			math.IsNaN(xll) || math.IsInf(xll, 0) || math.IsNaN(yll) || math.IsInf(yll, 0) {
			t.Skip()
		}
		r, err := dsm.NewRaster(w, h, cellSize)
		if err != nil {
			t.Skip()
		}
		// Deterministic splitmix64-style fill: finite, varied values.
		s := seed
		next := func() float64 {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			return float64(int64(z%2_000_000)-1_000_000) / 128
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				r.Set(geom.Cell{X: x, Y: y}, next())
			}
		}
		g := FromRaster(r, xll, yll)
		var buf bytes.Buffer
		if err := g.WriteAsc(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		r2, mask, err := LoadRaster(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if mask != nil {
			t.Fatalf("%d cells misread as NODATA", mask.Count())
		}
		if r2.W() != w || r2.H() != h || r2.CellSize() != cellSize {
			t.Fatalf("shape drifted: %dx%d cell %g", r2.W(), r2.H(), r2.CellSize())
		}
		if r.ContentHash() != r2.ContentHash() {
			t.Fatal("raster content drifted through the ASC round trip")
		}
	})
}
