package gis

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/dsm"
	"repro/internal/geom"
)

const sampleAsc = `ncols 4
nrows 3
xllcorner 395000.5
yllcorner 5000020
cellsize 0.2
NODATA_value -9999
1.0 2.0 3.0 4.0
5.0 -9999 7.0 8.0
9.0 10.0 11.0 12.5
`

// header indexes asc through the windowed reader and returns its
// parsed header.
func header(t *testing.T, asc string) AscGrid {
	t.Helper()
	w, err := NewWindowedReader(strings.NewReader(asc), int64(len(asc)), WindowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return w.Header()
}

func TestReadAsc(t *testing.T) {
	g := header(t, sampleAsc)
	if g.NCols != 4 || g.NRows != 3 {
		t.Fatalf("dims %dx%d", g.NCols, g.NRows)
	}
	if g.CellSize != 0.2 || g.XLLCorner != 395000.5 || g.YLLCorner != 5000020 || g.NoData != -9999 {
		t.Errorf("georeference wrong: %+v", g)
	}
	r, mask, err := LoadRaster(strings.NewReader(sampleAsc))
	if err != nil {
		t.Fatal(err)
	}
	if r.At(geom.Cell{X: 0, Y: 0}) != 1.0 || r.At(geom.Cell{X: 3, Y: 2}) != 12.5 {
		t.Errorf("data order wrong")
	}
	if mask == nil || !mask.Get(geom.Cell{X: 1, Y: 1}) {
		t.Errorf("nodata cell not masked")
	}
}

func TestReadAscErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"missing header":   "1 2 3\n4 5 6\n",
		"bad header value": "ncols x\nnrows 2\ncellsize 1\n1 2\n3 4\n",
		"unknown key":      "ncols 2\nnrows 1\ncellsize 1\nfrobnicate 3\n1 2\n",
		"too few values":   "ncols 2\nnrows 2\ncellsize 1\n1 2 3\n",
		"too many values":  "ncols 2\nnrows 1\ncellsize 1\n1 2 3\n",
		"bad data token":   "ncols 2\nnrows 1\ncellsize 1\n1 zz\n",
		"zero dims":        "ncols 0\nnrows 1\ncellsize 1\n",
		"bad cellsize":     "ncols 1\nnrows 1\ncellsize -1\n5\n",
		"fractional ncols": "ncols 2.7\nnrows 1\ncellsize 1\n1 2\n",
		"fractional nrows": "ncols 2\nnrows 1.5\ncellsize 1\n1 2\n",
		"ncols over int32": "ncols 4294967296\nnrows 1\ncellsize 1\n1 2\n",
		"huge ncols":       hugeHeader,
		"split rows":       "ncols 4\nnrows 2\ncellsize 1\n1 2\n3 4\n5 6\n7 8\n",
	}
	for name, data := range cases {
		if _, _, err := LoadRaster(strings.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestNonFiniteValues: the decoder rejects infinite heights (an
// unmarked ±Inf cell would give every cell within shadow reach an
// infinite horizon) and non-finite header values, naming the offending
// cell or key, while NaN heights stay NODATA like the sentinel.
func TestNonFiniteValues(t *testing.T) {
	const head = "ncols 2\nnrows 2\ncellsize 0.2\nNODATA_value -9999\n"
	for _, tc := range []struct{ name, asc, errHas string }{
		{"+Inf height", head + "1 2\n3 inf\n", "row 1 col 1"},
		{"-Infinity height", head + "-Infinity 2\n3 4\n", "row 0 col 0"},
		{"+Inf height, first row", head + "1 +Inf\n3 4\n", "row 0 col 1"},
		{"NaN cellsize", "ncols 1\nnrows 1\ncellsize nan\n5\n", "cellsize"},
		{"Inf cellsize", "ncols 1\nnrows 1\ncellsize inf\n5\n", "cellsize"},
		{"NaN xllcorner", "ncols 1\nnrows 1\ncellsize 1\nxllcorner NaN\n5\n", "xllcorner"},
		{"-Inf yllcenter", "ncols 1\nnrows 1\ncellsize 1\nyllcenter -inf\n5\n", "yllcenter"},
		{"NaN NODATA", "ncols 1\nnrows 1\ncellsize 1\nNODATA_value nan\n5\n", "nodata_value"},
		{"Inf ncols", "ncols inf\nnrows 1\ncellsize 1\n5\n", "ncols"},
	} {
		_, _, err := LoadRaster(strings.NewReader(tc.asc))
		if err == nil || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("%s: err %v, want one naming %q", tc.name, err, tc.errHas)
		}
	}
	r, mask, err := LoadRaster(strings.NewReader(head + "1 NaN\nnan 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []geom.Cell{{X: 1, Y: 0}, {X: 0, Y: 1}} {
		if mask == nil || !mask.Get(c) || r.At(c) != 0 {
			t.Errorf("NaN cell %v: height %g, masked %v; want NODATA at the datum 0", c, r.At(c), mask != nil && mask.Get(c))
		}
	}
}

// hugeHeader claims a two-billion-column row but carries one value:
// the decoder must reject it from the line length alone, before
// allocating anything sized by the header.
const hugeHeader = "ncols 2000000000\nnrows 1\ncellsize 1\n0\n"

func TestRoundTrip(t *testing.T) {
	r, _, err := LoadRaster(strings.NewReader(sampleAsc))
	if err != nil {
		t.Fatal(err)
	}
	g := header(t, sampleAsc)
	var buf bytes.Buffer
	if err := FromRaster(r, g.XLLCorner, g.YLLCorner).WriteAsc(&buf); err != nil {
		t.Fatal(err)
	}
	if back := header(t, buf.String()); back.NCols != g.NCols || back.NRows != g.NRows || back.CellSize != g.CellSize ||
		back.XLLCorner != g.XLLCorner || back.YLLCorner != g.YLLCorner {
		t.Fatalf("header roundtrip failed: %+v vs %+v", back, g)
	}
	back, _, err := LoadRaster(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ContentHash() != r.ContentHash() {
		t.Fatal("data roundtrip failed")
	}
}

func TestToRaster(t *testing.T) {
	r, mask, err := LoadRaster(strings.NewReader(sampleAsc))
	if err != nil {
		t.Fatal(err)
	}
	if mask == nil || mask.Count() != 1 {
		t.Errorf("nodata mask = %v, want 1 cell", mask)
	}
	if r.At(geom.Cell{X: 1, Y: 1}) != 0 {
		t.Error("nodata cell should take the fill value")
	}
	if r.At(geom.Cell{X: 3, Y: 2}) != 12.5 {
		t.Error("data misplaced in raster")
	}
	if r.CellSize() != 0.2 {
		t.Error("cell size lost")
	}
}

func TestFromRasterRoundTrip(t *testing.T) {
	// A synthetic scene exported and re-imported must preserve every
	// elevation: the path a user takes to inspect our scenes in QGIS
	// or to swap in a real LiDAR DSM.
	b, err := dsm.NewSceneBuilder(20, 10, 0.2, dsm.Plane{RidgeZ: 8, SlopeDeg: 26, AspectDeg: 180}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b.AddChimney(geom.Cell{X: 5, Y: 3}, 2, 1.5)
	scene := b.Build()

	g := FromRaster(scene.Raster, 395000, 5000000)
	var buf bytes.Buffer
	if err := g.WriteAsc(&buf); err != nil {
		t.Fatal(err)
	}
	r2, mask, err := LoadRaster(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mask != nil {
		t.Errorf("unexpected nodata cells: %d", mask.Count())
	}
	for y := 0; y < scene.Raster.H(); y++ {
		for x := 0; x < scene.Raster.W(); x++ {
			c := geom.Cell{X: x, Y: y}
			a, bv := scene.Raster.At(c), r2.At(c)
			if math.Abs(a-bv) > 1e-9 {
				t.Fatalf("elevation mismatch at %v: %g vs %g", c, a, bv)
			}
		}
	}
}

func TestXllcenterVariantAccepted(t *testing.T) {
	asc := strings.Replace(sampleAsc, "xllcorner", "xllcenter", 1)
	asc = strings.Replace(asc, "yllcorner", "yllcenter", 1)
	if _, _, err := LoadRaster(strings.NewReader(asc)); err != nil {
		t.Errorf("xllcenter/yllcenter variant rejected: %v", err)
	}
	if g := header(t, asc); g.XLLCorner != 395000.5 || g.YLLCorner != 5000020 {
		t.Errorf("xllcenter/yllcenter not parsed: %+v", g)
	}
}
