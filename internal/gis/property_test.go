package gis

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dsm"
	"repro/internal/geom"
)

func TestAscRoundTripProperty(t *testing.T) {
	// Random rasters survive export→import bit-exact (modulo the %g
	// formatting, which is lossless for these magnitudes).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 2 + rng.Intn(12)
		h := 2 + rng.Intn(12)
		r, err := dsm.NewRaster(w, h, 0.2)
		if err != nil {
			return false
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				r.Set(geom.Cell{X: x, Y: y}, float64(rng.Intn(4000))/100)
			}
		}
		g := FromRaster(r, 100, 200)
		var buf bytes.Buffer
		if err := g.WriteAsc(&buf); err != nil {
			return false
		}
		wr, err := NewWindowedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), WindowOptions{})
		if err != nil {
			return false
		}
		back := wr.Header()
		r2, mask, err := LoadRaster(&buf)
		if err != nil || mask != nil {
			return false
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				c := geom.Cell{X: x, Y: y}
				if r.At(c) != r2.At(c) {
					return false
				}
			}
		}
		return back.XLLCorner == 100 && back.YLLCorner == 200
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
