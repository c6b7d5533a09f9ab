package horizon

import (
	"math"
	"testing"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// FuzzRaiseNeverLowersHorizon pins the march's monotonicity over
// small random DSMs: raising one cell by a positive amount only adds
// obstruction, so no sector tangent of any other cell may drop and no
// other cell's sky view factor may rise. The raised cell itself is
// excluded because its own eye height moves with it. dsm.AtMetres
// samples the nearest cell and float subtraction, division and
// summation are monotone, so the property is exact, not a tolerance.
// Every map is built at workers 1 and 4, which must agree bit for bit.
func FuzzRaiseNeverLowersHorizon(f *testing.F) {
	f.Add(uint8(6), uint8(5), []byte{0, 40, 200, 10, 90}, uint16(7), uint8(30))
	f.Add(uint8(11), uint8(11), []byte{255, 0, 0, 3}, uint16(77), uint8(255))
	f.Add(uint8(8), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(13), uint8(0))
	f.Add(uint8(0), uint8(0), []byte{}, uint16(0), uint8(0))
	f.Add(uint8(9), uint8(9), []byte{}, uint16(40), uint8(3))
	f.Fuzz(func(t *testing.T, w8, h8 uint8, heights []byte, at uint16, raise uint8) {
		w, h := 1+int(w8%12), 1+int(h8%12)
		r, err := dsm.NewRaster(w, h, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < w*h && len(heights) > 0; i++ {
			r.Set(geom.Cell{X: i % w, Y: i / w}, float64(heights[i%len(heights)])/32)
		}
		opts := Options{Sectors: 8, MaxDistanceM: 2}
		k := int(at) % (w * h)
		raisedCell := geom.Cell{X: k % w, Y: k / w}
		raised := r.Clone()
		raised.Set(raisedCell, r.At(raisedCell)+(float64(raise)+1)/16)

		before, after := buildAt1And4(t, r, opts), buildAt1And4(t, raised, opts)
		for idx := 0; idx < w*h; idx++ {
			if idx == k {
				continue
			}
			tb, ta := before.TanRow(idx), after.TanRow(idx)
			for s := range tb {
				if ta[s] < tb[s] {
					t.Fatalf("raising cell %v lowered cell %d sector %d tangent: %v -> %v",
						raisedCell, idx, s, tb[s], ta[s])
				}
			}
			if after.SVFIdx(idx) > before.SVFIdx(idx) {
				t.Fatalf("raising cell %v raised cell %d SVF: %v -> %v",
					raisedCell, idx, before.SVFIdx(idx), after.SVFIdx(idx))
			}
		}
	})
}

// buildAt1And4 builds the whole-raster map serially and on four
// workers and requires the two to be bit-identical.
func buildAt1And4(t *testing.T, r *dsm.Raster, opts Options) *Map {
	t.Helper()
	regions := []geom.Rect{r.Bounds()}
	serial, err := BuildRegions(r, regions, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildRegions(r, regions, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	ss, ps := serial.Snapshot(), par.Snapshot()
	if ss.Region != ps.Region || ss.Sectors != ps.Sectors {
		t.Fatalf("workers 1 vs 4: shape %v/%d vs %v/%d", ss.Region, ss.Sectors, ps.Region, ps.Sectors)
	}
	for i := range ss.Tan {
		if math.Float32bits(ss.Tan[i]) != math.Float32bits(ps.Tan[i]) {
			t.Fatalf("workers 1 vs 4: tan[%d] %v vs %v", i, ss.Tan[i], ps.Tan[i])
		}
	}
	for i := range ss.SVF {
		if math.Float32bits(ss.SVF[i]) != math.Float32bits(ps.SVF[i]) {
			t.Fatalf("workers 1 vs 4: svf[%d] %v vs %v", i, ss.SVF[i], ps.SVF[i])
		}
	}
	return serial
}
